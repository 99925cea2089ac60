(* Batch analysis in this (fresh) process, through the calls
   [vsfs analyze] makes with its defaults: [Pipeline.build_source] and
   [Pipeline.run_vsfs] / [run_sfs], no pre-analysis, one job, FIFO.

   Prints one JSON object: per program, the timed source -> results
   seconds, the MD5 of the encoded points-to artifact and the deterministic
   counters; for the process, its VmHWM and the host speed probe. *)

open Util
module Pipeline = Pta_workload.Pipeline
module Artifact = Pta_store.Artifact

type result = {
  seconds : float;  (* source text -> solver results *)
  md5 : string;  (* of the encoded points-to artifact *)
  svfg_builds : int;  (* "svfg" stage runs in the pipeline's stage log *)
  fields : (string * json) list;
}

let md5_of pt = Digest.to_hex (Digest.string (Artifact.encode_points_to pt))

(* One source text, timed from text to solver results. *)
let one ~solver src =
  let ctx = Pipeline.context ~pre:`None ~strategy:`Fifo ~jobs:1 () in
  let (b, pt, (run, extra)), seconds =
    timed (fun () ->
        let b = Pipeline.build_source ~ctx src in
        match solver with
        | `Vsfs ->
          let r, run = Pipeline.run_vsfs ~ctx b in
          let ver = Vsfs_core.Vsfs.versioning r in
          ( b,
            `Vsfs r,
            ( run,
              [ ("versions", Int (Vsfs_core.Versioning.n_versions ver));
                ( "svfg_nodes",
                  Int
                    (Pta_svfg.Svfg.n_nodes (Vsfs_core.Versioning.svfg ver)) ) ]
            ) )
        | `Sfs ->
          let r, run = Pipeline.run_sfs ~ctx b in
          (b, `Sfs r, (run, [])))
  in
  let md5 =
    md5_of
      (match pt with
      | `Vsfs r -> Pipeline.points_to_of_vsfs b r
      | `Sfs r -> Pipeline.points_to_of_sfs b r)
  in
  {
    seconds;
    md5;
    svfg_builds =
      List.length
        (List.filter (fun (k, _, _) -> k = "svfg") (Pipeline.stage_log ctx));
    fields =
      [ ("seconds", Num seconds);
        ("md5", Str md5);
        ("pops", Int run.Pipeline.pops);
        ("props", Int run.Pipeline.props);
        ("unique_sets", Int run.Pipeline.unique_sets);
        ("set_words", Int run.Pipeline.set_words) ]
      @ extra;
  }

(* Probe timings before the first file and after the last. *)
let probes_per_side = 16

let solver_of = function
  | "vsfs" -> `Vsfs
  | "sfs" -> `Sfs
  | s -> failwith ("unknown solver " ^ s)

(* What a fresh process starts from: empty set pool, zeroed counters,
   compacted heap. *)
let fresh_state () =
  Pta_ds.Ptset.reset ();
  Pta_ds.Stats.reset_all ();
  Gc.compact ()

(* Files are analysed one after another, each from a fresh state; the
   reported VmHWM is the process's, i.e. the largest program's peak. The
   host speed probe runs before the first file and after the last, outside
   the timed regions. *)
let run ~solver ~files =
  let solver = solver_of solver in
  let probes = Probe.run probes_per_side in
  let results =
    List.map
      (fun file ->
        let src = read_file file in
        fresh_state ();
        let r = one ~solver src in
        Obj (("file", Str file) :: r.fields))
      files
  in
  let probes = probes @ Probe.run probes_per_side in
  print_json
    (Obj
       [ ("vmhwm_kb", Int (vmhwm_kb ()));
         ("probe_s", Num (median probes));
         ("programs", List results) ])
