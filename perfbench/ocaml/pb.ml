(* The benchmark's executable. perfbench/run.py drives it; each subcommand
   prints one JSON object on stdout.

     pb gen --workload W --seed N --out DIR --reps K
     pb analyze --solver vsfs|sfs --file F [--file F ...]
     pb serve --vsfs BIN --file F --seed N --seconds S --reload-every S
              --cold-reps K
     pb trace --seed N --src DIR --serve-file F --store DIR
              --trace-out FILE *)

open Util

let origin_json = function
  | Workloads.Variants (names, scale, n) ->
    Obj
      [ ("entries", List (List.map (fun s -> Str s) names));
        ("scale", Num scale); ("variants", Int n); ("seeded", Bool true) ]
  | Workloads.Entry (name, scale) ->
    Obj
      [ ("entries", List [ Str name ]); ("scale", Num scale);
        ("variants", Int 1); ("seeded", Bool false) ]
  | Workloads.Mega scale ->
    Obj
      [ ("entries", List [ Str "mega" ]); ("scale", Num scale);
        ("variants", Int 1); ("seeded", Bool false); ("rng_free", Bool true) ]

(* Generate the workload's programs [reps] times (timing each) and write
   them once: the batch programs under OUT/batch, the daemon's as
   OUT/serve.c. Batch programs are grouped by suite entry; each group is
   analysed by one process. *)
let gen flags =
  let open Workloads in
  let w = find (flag flags "workload") in
  let seed = int_of_string (flag flags "seed") in
  let out = flag flags "out" in
  let reps = int_of_string (flag flags "reps") in
  mkdir_p (Filename.concat out "batch");
  let runs =
    List.init reps (fun _ ->
        timed (fun () ->
            (programs ~seed w.batch, List.hd (programs ~seed w.serve))))
  in
  let batch, serve = fst (List.hd runs) in
  let file p = Filename.concat "batch" (p.name ^ ".c") in
  List.iter (fun p -> write_file (Filename.concat out (file p)) p.source) batch;
  write_file (Filename.concat out "serve.c") serve.source;
  let entry p = List.hd (String.split_on_char '.' p.name) in
  let group e =
    Obj
      [ ("entry", Str e);
        ( "files",
          List
            (List.filter_map
               (fun p -> if entry p = e then Some (Str (file p)) else None)
               batch) ) ]
  in
  let cfg_seed p =
    (p.name, match p.cfg_seed with Some s -> Int s | None -> Str "rng-free")
  in
  let loc ps =
    List.fold_left (fun a p -> a + Pta_workload.Gen.loc p.source) 0 ps
  in
  print_json
    (Obj
       [
         ("gen_s", List (List.map (fun (_, s) -> Num s) runs));
         ("ocaml", Str Sys.ocaml_version);
         ("batch", origin_json w.batch);
         ("serve", origin_json w.serve);
         ("reload_every", Num w.reload_every);
         ( "groups",
           List (List.map group (List.sort_uniq compare (List.map entry batch)))
         );
         ( "batch_digest",
           Str
             (Digest.to_hex
                (Digest.string
                   (String.concat "" (List.map (fun p -> p.source) batch)))) );
         ("batch_programs", Int (List.length batch));
         ("batch_loc", Int (loc batch));
         ("serve_loc", Int (loc [ serve ]));
         ( "cfg_seeds",
           Obj (List.map cfg_seed (batch @ [ { serve with name = "serve" } ]))
         );
       ])

let () =
  match Array.to_list Sys.argv with
  | _ :: "gen" :: rest -> gen (parse_flags rest)
  | _ :: "analyze" :: rest ->
    let f = parse_flags rest in
    let files =
      List.filter_map (fun (k, v) -> if k = "file" then Some v else None) f
    in
    Analyze.run ~solver:(flag f "solver") ~files
  | _ :: "serve" :: rest ->
    let f = parse_flags rest in
    let num k = float_of_string (flag f k) in
    Loadgen.run ~vsfs:(flag f "vsfs") ~file:(flag f "file")
      ~seed:(int_of_string (flag f "seed"))
      ~seconds:(num "seconds") ~reload_every:(num "reload-every")
      ~cold_reps:(int_of_string (flag f "cold-reps"))
  | _ :: "trace" :: rest ->
    let f = parse_flags rest in
    Traced.run ~seed:(int_of_string (flag f "seed"))
      ~src_dir:(flag f "src") ~serve_file:(flag f "serve-file")
      ~store_dir:(flag f "store") ~trace_out:(flag f "trace-out")
  | _ ->
    prerr_endline "usage: pb (gen|analyze|serve|trace) --flag value ...";
    exit 2
