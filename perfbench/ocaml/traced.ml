(* The traced run: the batch pipeline and a serve session driven in-process,
   with a span around every public layer call.

   Each batch path runs the stages [Pipeline.run_vsfs] / [run_sfs] compose,
   each through [Pipeline.Stage.run] in its own span: [build_source] (with
   the compile hook wrapped in a span of its own), [stage_svfg], then
   [stage_versioning] + [stage_vsfs] or [stage_sfs]. The build's inner
   stages (compile, pre, andersen) are timed by the pipeline's stage log.
   Every program also runs untraced through the public drivers, in the same
   process; that run gives the tracing overhead and the number of SVFG
   builds the drivers make. Each span records wall time, [Gc.quick_stat]
   deltas and the process VmHWM at its end. The spans are written as Chrome
   trace-event JSON (viewable offline in Perfetto), and the per-layer
   metrics are printed as one JSON object. *)

open Util
module Pipeline = Pta_workload.Pipeline
module Stage = Pipeline.Stage
module Svfg = Pta_svfg.Svfg
module Sfs = Pta_sfs.Sfs
module Vsfs = Vsfs_core.Vsfs
module Versioning = Vsfs_core.Versioning
module Telemetry = Pta_engine.Telemetry
module Session = Pta_serve.Session
module Ptset = Pta_ds.Ptset
module Stats = Pta_ds.Stats

type span = {
  sname : string;
  cat : string;
  parent : string;  (* the enclosing span, "" at top level *)
  ts : float;
  dur : float;
  alloc_words : float;  (* minor + major - promoted *)
  promoted : float;
  major_gcs : int;
  minor_gcs : int;
  hwm_kb : int;
}

let spans = ref []
let open_spans = ref []

let span ?(cat = "layer") sname f =
  let parent = match !open_spans with p :: _ -> p | [] -> "" in
  open_spans := sname :: !open_spans;
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let x =
    Fun.protect ~finally:(fun () -> open_spans := List.tl !open_spans) f
  in
  let t1 = now () in
  let g1 = Gc.quick_stat () in
  let d a b = b -. a in
  spans :=
    {
      sname;
      cat;
      parent;
      ts = t0;
      dur = t1 -. t0;
      alloc_words =
        d g0.Gc.minor_words g1.Gc.minor_words
        +. d g0.Gc.major_words g1.Gc.major_words
        -. d g0.Gc.promoted_words g1.Gc.promoted_words;
      promoted = d g0.Gc.promoted_words g1.Gc.promoted_words;
      major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
      minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
      hwm_kb = vmhwm_kb ();
    }
    :: !spans;
  x

(* Stages the pipeline ran inside a span, laid end to end from the span's
   start: its stage log holds their durations, not their start times. *)
let stage_events = ref []

let log_stages ~parent ~ts log =
  ignore
    (List.fold_left
       (fun t (key, dur, _) ->
         stage_events := (key, parent, t, dur) :: !stage_events;
         t +. dur)
       ts log)

let layer_spans name = List.filter (fun s -> s.sname = name) !spans
let sum_dur name = List.fold_left (fun a s -> a +. s.dur) 0. (layer_spans name)
let sum_alloc_mw name =
  List.fold_left (fun a s -> a +. s.alloc_words) 0. (layer_spans name) /. 1e6
let sum_major name =
  List.fold_left (fun a s -> a + s.major_gcs) 0 (layer_spans name)

let chrome_trace path =
  let origin =
    List.fold_left (fun a s -> Float.min a s.ts) infinity !spans
  in
  let ev s =
    Obj
      [
        ("name", Str s.sname);
        ("cat", Str s.cat);
        ("ph", Str "X");
        ("ts", Num ((s.ts -. origin) *. 1e6));
        ("dur", Num (s.dur *. 1e6));
        ("pid", Int 1);
        ("tid", Int 1);
        ( "args",
          Obj
            [
              ("parent", Str s.parent);
              ("alloc_words", Num s.alloc_words);
              ("promoted_words", Num s.promoted);
              ("major_collections", Int s.major_gcs);
              ("minor_collections", Int s.minor_gcs);
              ("vmhwm_kb", Int s.hwm_kb);
            ] );
      ]
  in
  let stage_ev (key, parent, ts, dur) =
    Obj
      [
        ("name", Str ("stage." ^ key));
        ("cat", Str "stage");
        ("ph", Str "X");
        ("ts", Num ((ts -. origin) *. 1e6));
        ("dur", Num (dur *. 1e6));
        ("pid", Int 1);
        ("tid", Int 1);
        ("args", Obj [ ("parent", Str parent); ("from", Str "stage log") ]);
      ]
  in
  write_file path
    (to_string
       (Obj
          [
            ( "traceEvents",
              List
                (List.rev_map ev !spans
                @ List.rev_map stage_ev !stage_events) );
            ("displayTimeUnit", Str "ms");
          ]))

(* ---------- batch paths ---------- *)

type counters = {
  mutable andersen_s : float;
  mutable unique_sets : int;
  mutable pool_words : int;
  mutable union_hits : int;
  mutable union_all : int;
  mutable delta_hits : int;
  mutable delta_all : int;
  mutable svfg_builds : int;
  mutable svfg_nodes : int;
  mutable svfg_ind : int;
  mutable versions : int;
  mutable v_pops : int;
  mutable v_props : int;
  mutable v_dups : int;
  mutable v_pushes : int;
  mutable v_words : int;
  mutable s_pops : int;
  mutable s_props : int;
  mutable s_dups : int;
  mutable s_pushes : int;
  mutable s_words : int;
  mutable s_unshared : int;
}

let c =
  {
    andersen_s = 0.; unique_sets = 0; pool_words = 0; union_hits = 0;
    union_all = 0; delta_hits = 0; delta_all = 0; svfg_builds = 0;
    svfg_nodes = 0; svfg_ind = 0; versions = 0; v_pops = 0; v_props = 0;
    v_dups = 0; v_pushes = 0; v_words = 0; s_pops = 0; s_props = 0;
    s_dups = 0; s_pushes = 0; s_words = 0; s_unshared = 0;
  }

let ds_counters () =
  c.unique_sets <- c.unique_sets + Ptset.n_unique ();
  c.pool_words <- c.pool_words + Ptset.pool_words ();
  let h = Stats.get "ptset.union_hits" and m = Stats.get "ptset.union_misses" in
  c.union_hits <- c.union_hits + h;
  c.union_all <- c.union_all + h + m;
  let h = Stats.get "ptset.delta_hits" and m = Stats.get "ptset.delta_misses" in
  c.delta_hits <- c.delta_hits + h;
  c.delta_all <- c.delta_all + h + m

(* One path, source text -> points-to artifact, with the context
   [vsfs analyze] uses. *)
let traced_path ~solver src =
  let ctx = Pipeline.context ~pre:`None ~strategy:`Fifo ~jobs:1 () in
  let compile s = span "cfront.compile" (fun () -> Pta_cfront.Lower.compile s) in
  let ts = now () in
  let b =
    span "pipeline.build" (fun () -> Pipeline.build_source ~ctx ~compile src)
  in
  log_stages ~parent:"pipeline.build" ~ts
    (List.filter (fun (k, _, _) -> k <> "build") (Pipeline.stage_log ctx));
  c.andersen_s <- c.andersen_s +. Pipeline.stage_seconds ctx "andersen";
  let bg = span "svfg.build" (fun () -> Stage.run ctx Pipeline.stage_svfg b) in
  let g = snd bg in
  c.svfg_nodes <- c.svfg_nodes + Svfg.n_nodes g;
  c.svfg_ind <- c.svfg_ind + Svfg.n_indirect_edges g;
  match solver with
  | `Vsfs ->
    let bgv =
      span "versioning.compute" (fun () ->
          Stage.run ctx Pipeline.stage_versioning bg)
    in
    let _, _, ver = bgv in
    c.versions <- c.versions + Versioning.n_versions ver;
    let r, _ =
      span "vsfs.solve" (fun () -> Stage.run ctx Pipeline.stage_vsfs bgv)
    in
    let t = Telemetry.snapshot (Vsfs.telemetry r) in
    c.v_pops <- c.v_pops + Vsfs.processed r;
    c.v_props <- c.v_props + Vsfs.n_propagations r;
    c.v_dups <- c.v_dups + t.Telemetry.s_dups;
    c.v_pushes <- c.v_pushes + t.Telemetry.s_pushes;
    c.v_words <- c.v_words + Vsfs.words r;
    Pipeline.points_to_of_vsfs b r
  | `Sfs ->
    let r = span "sfs.solve" (fun () -> Stage.run ctx Pipeline.stage_sfs bg) in
    let t = Telemetry.snapshot (Sfs.telemetry r) in
    c.s_pops <- c.s_pops + Sfs.processed r;
    c.s_props <- c.s_props + Sfs.n_propagations r;
    c.s_dups <- c.s_dups + t.Telemetry.s_dups;
    c.s_pushes <- c.s_pushes + t.Telemetry.s_pushes;
    c.s_words <- c.s_words + Sfs.words r;
    c.s_unshared <- c.s_unshared + Sfs.unshared_words r;
    Pipeline.points_to_of_sfs b r

let paths = [ ("vsfs", `Vsfs); ("sfs", `Sfs) ]

(* ---------- in-process serve session ---------- *)

let serve_session ~file ~seed ~store_dir =
  Analyze.fresh_state ();
  let store = Pta_store.Store.open_ store_dir in
  Pta_par.Pool.with_pool ~jobs:(Pta_par.Pool.default_jobs ()) (fun pool ->
      let s =
        match
          span ~cat:"serve" "serve.create" (fun () ->
              Session.create ~store ~pool ~with_vsfs:true file)
        with
        | Ok s -> s
        | Error e -> failwith ("Session.create: " ^ e)
      in
      let qs = Workloads.queries ~seed ~salt:4 (Session.var_names s) 200 in
      span ~cat:"serve" "serve.answers" (fun () ->
          List.iter (fun q -> ignore (Session.answers s [ q ])) qs);
      append_file file (Workloads.edit ~seed 1);
      let info =
        match
          span ~cat:"serve" "serve.reload" (fun () -> Session.reload s ())
        with
        | Ok i -> i
        | Error e -> failwith ("Session.reload: " ^ e)
      in
      (sum_dur "serve.answers" /. float (List.length qs) *. 1e6, info))

(* ---------- entry point ---------- *)

let run ~seed ~src_dir ~serve_file ~store_dir ~trace_out =
  let failures = ref [] in
  let fail msg = failures := msg :: !failures in
  let untraced_s = ref 0. and traced_s = ref 0. in
  let md5s =
    List.map
      (fun name ->
        let src = read_file (Filename.concat src_dir (name ^ ".c")) in
        let per_path =
          List.map
            (fun (pname, solver) ->
              Analyze.fresh_state ();
              let u = Analyze.one ~solver src in
              untraced_s := !untraced_s +. u.Analyze.seconds;
              c.svfg_builds <- c.svfg_builds + u.Analyze.svfg_builds;
              Analyze.fresh_state ();
              let pt, s =
                timed (fun () ->
                    span ~cat:"path" (name ^ "/" ^ pname) (fun () ->
                        traced_path ~solver src))
              in
              ds_counters ();
              traced_s := !traced_s +. s;
              (pname, (u.Analyze.md5, Analyze.md5_of pt)))
            paths
        in
        (match per_path with
        | [ (_, (uv, tv)); (_, (us, ts)) ] ->
          if uv <> us then fail (name ^ ": SFS and VSFS artifacts differ");
          if tv <> ts then
            fail (name ^ ": traced SFS and VSFS artifacts differ")
        | _ -> ());
        (name, per_path))
      (Sys.readdir src_dir |> Array.to_list |> List.sort compare
      |> List.filter_map (fun f -> Filename.chop_suffix_opt ~suffix:".c" f))
  in
  let answer_us, info = serve_session ~file:serve_file ~seed ~store_dir in
  chrome_trace trace_out;
  let share a b = if b = 0 then 0. else float a /. float b in
  let named =
    [ ("cfront.compile_s", sum_dur "cfront.compile");
      ("andersen.solve_s", c.andersen_s);
      ("svfg.build_s", sum_dur "svfg.build");
      ("versioning.compute_s", sum_dur "versioning.compute");
      ("vsfs.solve_s", sum_dur "vsfs.solve");
      ("sfs.solve_s", sum_dur "sfs.solve") ]
  in
  let covered_s = List.fold_left (fun a (_, s) -> a +. s) 0. named in
  let m = List.map (fun (k, s) -> (k, Num s)) named in
  print_json
    (Obj
       [
         ( "metrics",
           Obj
             (m
             @ [
                 ("cfront.alloc_mw", Num (sum_alloc_mw "cfront.compile"));
                 ("cfront.major_gcs", Int (sum_major "cfront.compile"));
                 (* the build outside the compile hook: validation, Andersen
                    and singleton refinement *)
                 ( "andersen.alloc_mw",
                   Num
                     (sum_alloc_mw "pipeline.build"
                     -. sum_alloc_mw "cfront.compile") );
                 ( "andersen.major_gcs",
                   Int (sum_major "pipeline.build" - sum_major "cfront.compile")
                 );
                 ("ds.unique_sets", Int c.unique_sets);
                 ("ds.pool_words", Int c.pool_words);
                 ("ds.union_hit_share", Num (share c.union_hits c.union_all));
                 ("ds.delta_hit_share", Num (share c.delta_hits c.delta_all));
                 ("svfg.builds", Int c.svfg_builds);
                 ("svfg.nodes", Int c.svfg_nodes);
                 ("svfg.indirect_edges", Int c.svfg_ind);
                 ("svfg.alloc_mw", Num (sum_alloc_mw "svfg.build"));
                 ("versioning.versions", Int c.versions);
                 ( "versioning.alloc_mw",
                   Num (sum_alloc_mw "versioning.compute") );
                 ("vsfs.pops", Int c.v_pops);
                 ("vsfs.props", Int c.v_props);
                 ( "vsfs.dup_share",
                   Num (share c.v_dups (c.v_pushes + c.v_dups)) );
                 ("vsfs.set_words", Int c.v_words);
                 ("sfs.pops", Int c.s_pops);
                 ("sfs.props", Int c.s_props);
                 ( "sfs.dup_share",
                   Num (share c.s_dups (c.s_pushes + c.s_dups)) );
                 ("sfs.set_words", Int c.s_words);
                 ("sfs.unshared_words", Int c.s_unshared);
                 ("serve.reload_pops", Int info.Pta_serve.Protocol.r_pops);
                 ( "serve.reload_reused_share",
                   Num
                     (share info.Pta_serve.Protocol.r_reused
                        info.Pta_serve.Protocol.r_total) );
                 ("store.bytes", Int (dir_bytes store_dir));
                 ("serve.load_s", Num (sum_dur "serve.create"));
                 ("serve.reload_s", Num (sum_dur "serve.reload"));
                 ("serve.answer_us", Num answer_us);
                 ( "trace.overhead_share",
                   Num ((!traced_s -. !untraced_s) /. !untraced_s) );
                 ( "trace.uncovered_share",
                   Num ((!traced_s -. covered_s) /. !traced_s) );
               ]) );
         ( "md5",
           Obj
             (List.map
                (fun (n, l) ->
                  (n, Obj (List.map (fun (p, (_, t)) -> (p, Str t)) l)))
                md5s) );
         ("session_jobs", Int (Pta_par.Pool.default_jobs ()));
         ("failures", List (List.rev_map (fun s -> Str s) !failures));
       ])
