(* The serve phase's client process: starts a [vsfs serve] daemon with its
   default flags (only the file and the socket), measures spawn -> first
   answer, then drives it with at most two connections at a time:

   - the query stream: seeded point queries, open-loop at [rate].
     The daemon serves one connection at a time, so each query is its own
     short connection; a query that falls due while the previous one is
     still blocked is sent late, and every latency is timed from when the
     query was due, not from when it was sent;
   - the edit stream (a second thread): every [reload_every] seconds,
     starting half an interval in, it appends a seeded one-function edit to
     the file and sends [Reload], so writes run beside reads.

   After the last reload, the daemon must answer a seeded check sample as a
   cold in-process session on the edited file does (outside the timed
   region). The host speed probe runs only while no daemon is alive. Runs with the daemon's working directory
   as its own, so the socket path is short and relative. *)

open Util
module P = Pta_serve.Protocol
module C = Pta_serve.Client

let sock = "daemon.sock"
let request_timeout = 120.

(* Open-loop query rate, queries per second. *)
let rate = 100.

(* The interactive latency limit a query is late beyond. *)
let limit_ms = 100.

(* Size of the seeded sample checked against a cold session. *)
let check_n = 200

(* Probe timings taken in each daemon-free window. *)
let probes_per_window = 40

exception Daemon_died of string

let spawn ~vsfs ~file =
  let log =
    Unix.openfile "daemon.log" [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let pid =
    Unix.create_process vsfs [| vsfs; "serve"; file; "--socket"; sock |]
      Unix.stdin log log
  in
  Unix.close log;
  pid

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false

(* Connect, waiting out the cold load (the socket appears once the session
   is solved). *)
let connect_wait pid ~deadline =
  let rec go () =
    match C.connect sock with
    | fd -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      if not (alive pid) then raise (Daemon_died "daemon exited during load");
      if now () > deadline then raise (Daemon_died "daemon load timed out");
      Unix.sleepf 0.002;
      go ()
  in
  go ()

(* One request on its own connection. *)
let exchange req =
  let fd = C.connect sock in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO request_timeout;
      C.request fd req)

let stop pid =
  if alive pid then begin
    (try ignore (exchange P.Shutdown) with _ -> ());
    let deadline = now () +. 10. in
    while alive pid && now () < deadline do
      Unix.sleepf 0.01
    done;
    if alive pid then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
    end
  end

(* Spawn -> first reply ([Vars], which also yields the query vocabulary). *)
let cold_start ~vsfs ~file =
  let t0 = now () in
  let pid = spawn ~vsfs ~file in
  match
    let fd = connect_wait pid ~deadline:(t0 +. 170.) in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> C.request fd P.Vars)
  with
  | P.Names names -> (pid, now () -. t0, names)
  | _ ->
    stop pid;
    raise (Daemon_died "unexpected reply to Vars")
  | exception e ->
    stop pid;
    raise e

(* Wait for [due]: sleep to within a millisecond of it, then spin, so that
   the client's own wake-up delay (0.08-0.12 ms after a sleep, varying from
   run to run on a 2-vCPU host) stays out of the latencies. *)
let wait_until due =
  let d = due -. now () -. 0.001 in
  if d > 0. then Unix.sleepf d;
  while now () < due do
    ()
  done

type query_rec = {
  due : float;
  sent : float;
  latency_ms : float;  (* from due time; a failure counts as the timeout *)
  ok : bool;
  on_time : bool;  (* the previous query finished before this one fell due *)
}

(* After the last reload: a seeded sample of queries over the names of a
   cold session that solves the edited file in an empty store of its own (a
   full SFS solve, which the session cross-checks against a VSFS solve).
   The daemon's answers must equal the cold session's; as the names come
   from the edited file, a daemon still serving an older version fails. *)
let check_against_cold ~file ~seed ~ask =
  let store = Pta_store.Store.open_ "check-store" in
  Pta_par.Pool.with_pool ~jobs:1 (fun pool ->
      match Pta_serve.Session.create ~store ~pool ~with_vsfs:true file with
      | Error e -> Some ("cold session on the edited file: " ^ e)
      | Ok s -> (
        let qs =
          Workloads.queries ~seed ~salt:2 (Pta_serve.Session.var_names s)
            check_n
        in
        match ask qs with
        | Error msg -> Some msg
        | Ok daemon when daemon = Pta_serve.Session.answers s qs -> None
        | Ok _ ->
          Some "daemon answers differ from a cold solve after the last reload"))

let run ~vsfs ~file ~seed ~seconds ~reload_every ~cold_reps =
  let failures = ref [] in
  let fail msg = failures := msg :: !failures in
  let probes = ref [] in
  let probe () = probes := Probe.run probes_per_window @ !probes in
  let colds = ref [] in
  let rec start k =
    let pid, s, names = cold_start ~vsfs ~file in
    colds := s :: !colds;
    if k > 1 then begin
      stop pid;
      probe ();
      start (k - 1)
    end
    else (pid, names)
  in
  probe ();
  let pid, names = start cold_reps in
  Fun.protect ~finally:(fun () -> stop pid) @@ fun () ->
  let jobs =
    match exchange P.Stats with
    | P.Stats_r kv -> Option.value ~default:"?" (List.assoc_opt "jobs" kv)
    | _ -> "?"
  in
  (* idle round trips: no reload anywhere near *)
  let idle =
    List.map
      (fun q ->
        let _, s = timed (fun () -> exchange (P.Query (P.Exact, [ q ]))) in
        s *. 1e6)
      (Workloads.queries ~seed ~salt:3 names 30)
  in
  let n = max 1 (int_of_float (seconds *. rate)) in
  let stream = Array.of_list (Workloads.queries ~seed ~salt:1 names n) in
  let t0 = now () +. 0.05 in
  let reloads = ref [] in
  let reloader () =
    let rec go k =
      let due = t0 +. ((float k -. 0.5) *. reload_every) in
      if due < t0 +. seconds then begin
        let d = due -. now () in
        if d > 0. then Unix.sleepf d;
        let start = now () in
        append_file file (Workloads.edit ~seed k);
        let reply = try Ok (exchange (P.Reload None)) with e -> Error e in
        let s = now () -. start in
        (match reply with
        | Ok (P.Reloaded i) -> reloads := (start, s, i) :: !reloads
        | Ok (P.Error m) -> fail ("reload error: " ^ m)
        | Ok _ -> fail "reload: unexpected reply"
        | Error e -> fail ("reload: " ^ Printexc.to_string e));
        go (k + 1)
      end
    in
    go 1
  in
  let th = Thread.create reloader () in
  let recs = ref [] in
  let prev_done = ref 0. in
  Array.iteri
    (fun i q ->
      let due = t0 +. (float i /. rate) in
      wait_until due;
      let sent = now () in
      let ok =
        match exchange (P.Query (P.Exact, [ q ])) with
        | P.Answers (P.Exact, [ _ ]) -> true
        | _ -> false
        | exception _ -> false
      in
      let fin = now () in
      recs :=
        { due; sent; ok; on_time = !prev_done <= due;
          latency_ms =
            (if ok then (fin -. due) *. 1000. else request_timeout *. 1000.) }
        :: !recs;
      prev_done := fin)
    stream;
  Thread.join th;
  let recs = List.rev !recs in
  let bad = List.filter (fun r -> not r.ok) recs in
  let reloads = List.rev !reloads in
  (* queries that fell due while a reload was in flight; should no query
     fall due in one, their latency is that of all queries *)
  let blocked =
    List.filter
      (fun r ->
        List.exists (fun (st, s, _) -> r.due >= st && r.due < st +. s) reloads)
      recs
  in
  let gen_late =
    List.filter_map
      (fun r -> if r.on_time then Some ((r.sent -. r.due) *. 1000.) else None)
      recs
  in
  let lat rs = List.map (fun r -> r.latency_ms) rs in
  let late = List.filter (fun r -> r.latency_ms > limit_ms) recs in
  let ask qs =
    match exchange (P.Query (P.Exact, qs)) with
    | P.Answers (P.Exact, ans) when List.length ans = List.length qs -> Ok ans
    | _ -> Error "check sample: unexpected reply"
    | exception e -> Error ("check sample: " ^ Printexc.to_string e)
  in
  let check_failure =
    try check_against_cold ~file ~seed ~ask
    with e -> Some ("cold session: " ^ Printexc.to_string e)
  in
  let hwm = vmhwm_kb_of_pid pid in
  stop pid;
  probe ();
  print_json
    (Obj
       [
         ("cold_s", List (List.rev_map (fun s -> Num s) !colds));
         ("daemon_jobs", Str jobs);
         ("rate", Num rate);
         ("limit_ms", Num limit_ms);
         ("idle_rtt_us", Num (median idle));
         ("queries", Int (List.length recs));
         ("failed_queries", Int (List.length bad));
         ("query_p50_ms", Num (percentile 50. (lat recs)));
         ("query_p99_ms", Num (percentile 99. (lat recs)));
         ( "query_late_share",
           Num (float (List.length late) /. float (List.length recs)) );
         ("blocked", Int (List.length blocked));
         ( "blocked_p50_ms",
           Num (percentile 50. (lat (if blocked = [] then recs else blocked)))
         );
         ("gen_late_samples", Int (List.length gen_late));
         ( "gen_late_mean_ms",
           Num
             (List.fold_left ( +. ) 0. gen_late
             /. float (max 1 (List.length gen_late))) );
         ("gen_late_p50_ms", Num (percentile 50. gen_late));
         ("gen_late_p99_ms", Num (percentile 99. gen_late));
         ( "reloads",
           List
             (List.map
                (fun (_, s, i) ->
                  Obj
                    [
                      ("s", Num s);
                      ("pops", Int i.P.r_pops);
                      ("reused", Int i.P.r_reused);
                      ("total", Int i.P.r_total);
                    ])
                reloads) );
         ("daemon_vmhwm_kb", Int hwm);
         ("probe_s", Num (median !probes));
         ("probes", Int (List.length !probes));
         ("check_queries", Int check_n);
         ( "check_failure",
           match check_failure with Some m -> Str m | None -> Null );
         ("failures", List (List.rev_map (fun s -> Str s) !failures));
       ])
