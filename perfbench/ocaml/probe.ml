(* A host-speed probe: a fixed ~1.5 ms workload that shares no code with the
   analysis (balanced-tree inserts and a list sort: pointer-chasing and
   allocation like the solvers, but small blocks only, so it never grows
   the major heap or the process's peak RSS). The benchmark runs it between
   the measured operations; the median probe time tracks the host's speed
   over the same window, so timings can be reported in reference seconds
   (see run.py, PROBE_REF). *)

module IntMap = Map.Make (Int)

let work () =
  let m = ref IntMap.empty and x = ref 7 in
  for i = 0 to 1_500 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    m := IntMap.add (!x land 0xFFFF) i !m
  done;
  let l = IntMap.fold (fun k v acc -> (k lxor v) :: acc) !m [] in
  List.length (List.sort compare l)

(* One timing: three rounds, each from an empty minor heap so that no
   collection lands inside. *)
let once () =
  let round () =
    Gc.minor ();
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (work ()));
    Unix.gettimeofday () -. t0
  in
  round () +. round () +. round ()

let run n = List.init n (fun _ -> once ())
