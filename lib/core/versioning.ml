open Pta_ds
open Pta_ir
module Svfg = Pta_svfg.Svfg

type t = {
  svfg : Svfg.t;
  vt : Version.table;
  (* all keys are packed as [a lsl 31 lor b] to avoid tuple allocation;
     the width is checked, mirroring [Ptset.pack] *)
  consume : (int, Version.t) Hashtbl.t;  (* (node, obj) -> C *)
  store_yield : (int, Version.t) Hashtbl.t;  (* store prelabels *)
  delta : Bitset.t;
  reliance : (int, Bitset.t) Hashtbl.t;  (* (obj, κ) -> κ' set *)
  subscribers : (int, Bitset.t) Hashtbl.t;  (* (obj, κ) -> nodes *)
  mutable n_reliances : int;
  mutable n_versions : int;  (* |K| of the final labelling, ε included *)
  mutable duration : float;
}

let key a b =
  if a < 0 || b < 0 || a >= Ptset.key_limit || b >= Ptset.key_limit then
    invalid_arg "Versioning: node or object exceeds the 31-bit packed-key range";
  (a lsl Ptset.key_bits) lor b

let table t = t.vt
let svfg t = t.svfg

let consume t n o =
  match Hashtbl.find_opt t.consume (key n o) with
  | Some v -> v
  | None -> Version.epsilon

let is_store_node svfg n =
  match Svfg.kind svfg n with
  | Svfg.NInst _ -> Inst.is_store (Svfg.inst_of svfg n)
  | _ -> false

let yield t n o =
  if is_store_node t.svfg n then
    match Hashtbl.find_opt t.store_yield (key n o) with
    | Some v -> v
    | None -> Version.epsilon
  else consume t n o

let is_delta t n = Bitset.mem t.delta n

let add_reliance t o y c =
  let k = key o y in
  let set =
    match Hashtbl.find_opt t.reliance k with
    | Some s -> s
    | None ->
      let s = Bitset.create () in
      Hashtbl.add t.reliance k s;
      s
  in
  if Bitset.add set c then begin
    t.n_reliances <- t.n_reliances + 1;
    true
  end
  else false

let add_dynamic_edge t src o dst =
  let y = yield t src o and c = consume t dst o in
  if Version.is_epsilon y || y = c then None
  else begin
    ignore (add_reliance t o y c);
    Some (y, c)
  end

let iter_relied t o v f =
  match Hashtbl.find_opt t.reliance (key o v) with
  | Some s -> Bitset.iter f s
  | None -> ()

let iter_subscribers t o v f =
  match Hashtbl.find_opt t.subscribers (key o v) with
  | Some s -> Bitset.iter f s
  | None -> ()

let subscribe t o v n =
  if not (Version.is_epsilon v) then begin
    let k = key o v in
    let set =
      match Hashtbl.find_opt t.subscribers k with
      | Some s -> s
      | None ->
        let s = Bitset.create () in
        Hashtbl.add t.subscribers k s;
        s
    in
    ignore (Bitset.add set n)
  end

(* |K|: the distinct versions of the final labelling — consumed (δ
   included) and store-yielded — plus ε. Intermediate melds that no node
   ends up with are not counted. *)
let count_versions consume store_yield =
  let bound = ref 1 in
  let note _ v = bound := Int.max !bound (v + 1) in
  Hashtbl.iter note consume;
  Hashtbl.iter note store_yield;
  let seen = Bytes.make !bound '\000' in
  let mark _ v = Bytes.unsafe_set seen v '\001' in
  Hashtbl.iter mark consume;
  Hashtbl.iter mark store_yield;
  Bytes.set seen Version.epsilon '\001';
  let n = ref 0 in
  Bytes.iter (fun c -> if c <> '\000' then incr n) seen;
  !n

let duration t = t.duration
let n_versions t = t.n_versions

let sharing_factor t =
  (* consume-points per distinct (object, version) pair: how many SVFG
     node/object states share one points-to set. SFS is by definition 1.0. *)
  let distinct = Hashtbl.create 256 in
  let points = ref 0 in
  Hashtbl.iter
    (fun k v ->
      if not (Version.is_epsilon v) then begin
        incr points;
        let o = k land ((1 lsl Ptset.key_bits) - 1) in
        Hashtbl.replace distinct (o, v) ()
      end)
    t.consume;
  if Hashtbl.length distinct = 0 then 1.0
  else float !points /. float (Hashtbl.length distinct)

let n_reliances t = t.n_reliances

let words t =
  let acc = ref (Version.words t.vt) in
  let add_tbl tbl = acc := !acc + (4 * Hashtbl.length tbl) in
  add_tbl t.consume;
  add_tbl t.store_yield;
  Hashtbl.iter (fun _ s -> acc := !acc + Bitset.words s) t.reliance;
  Hashtbl.iter (fun _ s -> acc := !acc + Bitset.words s) t.subscribers;
  !acc + Bitset.words t.delta

(* ---------- serialization (Pta_store) ---------- *)

type raw = {
  raw_consume : (int * Version.t) array;
  raw_store_yield : (int * Version.t) array;
  raw_delta : Bitset.t;
  raw_reliance : (int * Bitset.t) array;
  raw_n_reliances : int;
  raw_n_prelabels : int;
  raw_n_versions : int;
}

let sorted_bindings tbl =
  let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  Array.of_list (List.sort (fun (a, _) (b, _) -> Int.compare a b) l)

let export t =
  {
    raw_consume = sorted_bindings t.consume;
    raw_store_yield = sorted_bindings t.store_yield;
    raw_delta = t.delta;
    raw_reliance = sorted_bindings t.reliance;
    raw_n_reliances = t.n_reliances;
    raw_n_prelabels = Version.n_prelabels t.vt;
    raw_n_versions = t.n_versions;
  }

let import svfg raw =
  let t =
    {
      svfg;
      vt =
        Version.import_sealed ~n_prelabels:raw.raw_n_prelabels
          ~n_versions:raw.raw_n_versions;
      consume = Hashtbl.create (max 16 (Array.length raw.raw_consume));
      store_yield = Hashtbl.create (max 16 (Array.length raw.raw_store_yield));
      delta = Bitset.copy raw.raw_delta;
      reliance = Hashtbl.create (max 16 (Array.length raw.raw_reliance));
      subscribers = Hashtbl.create 1024;
      n_reliances = raw.raw_n_reliances;
      n_versions = 1;
      duration = 0.;
    }
  in
  Array.iter (fun (k, v) -> Hashtbl.replace t.consume k v) raw.raw_consume;
  Array.iter
    (fun (k, v) -> Hashtbl.replace t.store_yield k v)
    raw.raw_store_yield;
  (* The solver grows reliance sets on-the-fly (dynamic call edges), so each
     import must own fresh copies. Subscribers are solver-side state and
     always start empty (export happens before solving). *)
  Array.iter
    (fun (k, s) -> Hashtbl.replace t.reliance k (Bitset.copy s))
    raw.raw_reliance;
  (* recounted rather than trusted: entries written before |K| counted only
     the final labelling recorded the version table's size here *)
  t.n_versions <- count_versions t.consume t.store_yield;
  t

(* The SVFG's (source, object) -> destinations bindings grouped by object,
   sources ascending within each object: object o's bindings are
   [ends.(o-1), ends.(o)) of [srcs] and [dsts]. Two counting sorts, by
   source then (stably) by object, make the order independent of the SVFG's
   hash-table layout; the arrays hold one entry per binding and share the
   graph's destination sets, so no edge is copied. *)
type groups = { ends : int array; srcs : int array; dsts : Bitset.t array }

let group_by_object svfg =
  let n_nodes = Svfg.n_nodes svfg and n_objs = Prog.n_vars (Svfg.prog svfg) in
  let by_src = Array.make (n_nodes + 1) 0 in
  let ends = Array.make (n_objs + 1) 0 in
  Svfg.iter_ind_sources svfg (fun src o _ ->
      by_src.(src + 1) <- by_src.(src + 1) + 1;
      ends.(o + 1) <- ends.(o + 1) + 1);
  for n = 1 to n_nodes do
    by_src.(n) <- by_src.(n) + by_src.(n - 1)
  done;
  for o = 1 to n_objs do
    ends.(o) <- ends.(o) + ends.(o - 1)
  done;
  let n = ends.(n_objs) and none = Bitset.create () in
  let objs = Array.make n 0 and sets = Array.make n none in
  Svfg.iter_ind_sources svfg (fun src o d ->
      let i = by_src.(src) in
      objs.(i) <- o;
      sets.(i) <- d;
      by_src.(src) <- i + 1);
  (* by_src.(s) is now the end of source s's run *)
  let srcs = Array.make n 0 and dsts = Array.make n none in
  let src = ref 0 in
  for i = 0 to n - 1 do
    while by_src.(!src) <= i do
      incr src
    done;
    let o = objs.(i) in
    let j = ends.(o) in
    srcs.(j) <- !src;
    dsts.(j) <- sets.(i);
    ends.(o) <- j + 1
  done;
  { ends; srcs; dsts }

(* Node roles in meld labelling, one byte per SVFG node. *)
let r_flows = '\000'
let r_store = '\001'
let r_delta = '\002'

(* Meld labelling (Fig. 8), one object at a time: [EXTERNAL] melds Y of an
   edge's source into C of its target unless the target is δ (frozen);
   [INTERNAL] makes non-store nodes yield what they consume, while a store
   yields its fixed prelabel (a fixed node of the kernel). The static
   version reliances ([A-PROP] with differing versions) are read off the
   same per-object graph once it is labelled. Local ids follow the groups'
   order, so the ids of new versions depend only on the SVFG. *)
let label_objects t role { ends; srcs; dsts } =
  let g = Meld.create () in
  let local = Array.make (Svfg.n_nodes t.svfg) (-1) in
  let glob = Vec.create ~dummy:0 () in
  for o = 0 to Array.length ends - 2 do
    let lo = if o = 0 then 0 else ends.(o - 1) and hi = ends.(o) in
    if hi > lo then begin
      Meld.clear g;
      Vec.clear glob;
      let add n =
        let r = Bytes.unsafe_get role n in
        let find tbl =
          Option.value ~default:Version.epsilon (Hashtbl.find_opt tbl (key n o))
        in
        local.(n) <-
          (if r = r_flows then Meld.add_node g Version.epsilon
           else if r = r_store then Meld.add_fixed g (find t.store_yield)
           else Meld.add_frozen g (find t.consume));
        ignore (Vec.push glob n)
      in
      for i = lo to hi - 1 do
        add srcs.(i)
      done;
      for i = lo to hi - 1 do
        Bitset.iter
          (fun n ->
            if local.(n) < 0 then add n;
            Meld.add_edge g (i - lo) local.(n))
          dsts.(i)
      done;
      Meld.solve g t.vt;
      for u = 0 to Meld.n_nodes g - 1 do
        let n = Vec.get glob u in
        local.(n) <- -1;
        let c = Meld.label g u in
        (* each (node, object) is labelled by exactly one object's pass, and
           only δ nodes were bound before *)
        if not (Version.is_epsilon c || Bytes.unsafe_get role n = r_delta) then
          Hashtbl.add t.consume (key n o) c
      done;
      Meld.iter_edges g (fun u v ->
          let y = Meld.yield g u and c = Meld.label g v in
          if (not (Version.is_epsilon y)) && y <> c then
            ignore (add_reliance t o y c))
    end
  done

let compute ?(release_labels = true) svfg =
  let start = Unix.gettimeofday () in
  let prog = Svfg.prog svfg in
  let aux = Svfg.aux svfg in
  let groups = group_by_object svfg in
  let t =
    {
      svfg;
      vt = Version.create ();
      (* about one labelled (node, object) per binding *)
      consume = Hashtbl.create (max 1024 (Array.length groups.srcs));
      store_yield = Hashtbl.create 256;
      delta = Bitset.create ();
      reliance = Hashtbl.create 1024;
      subscribers = Hashtbl.create 1024;
      n_reliances = 0;
      n_versions = 1;
      duration = 0.;
    }
  in
  let role = Bytes.make (Svfg.n_nodes svfg) r_flows in
  (* Prelabelling (Fig. 6). *)
  for n = 0 to Svfg.n_nodes svfg - 1 do
    match Svfg.kind svfg n with
    | Svfg.NInst { f; i } -> (
      match Prog.inst (Prog.func prog f) i with
      | Inst.Store _ ->
        Bytes.set role n r_store;
        Bitset.iter
          (fun o ->
            Hashtbl.replace t.store_yield (key n o)
              (Version.fresh t.vt ~table_label:"store"))
          (Pta_memssa.Annot.chi (Svfg.annot svfg) f i)
      | _ -> ())
    | Svfg.NFormalIn { f; obj } ->
      (* δ: functions that may be the target of an indirect call. *)
      if Callgraph.is_indirect_target aux.Pta_memssa.Modref.cg f then begin
        Bytes.set role n r_delta;
        ignore (Bitset.add t.delta n);
        Hashtbl.replace t.consume (key n obj)
          (Version.fresh t.vt ~table_label:"delta-fin")
      end
    | Svfg.NActualOut { f; call; obj } -> (
      (* δ: return targets of indirect calls. *)
      match Prog.inst (Prog.func prog f) call with
      | Inst.Call { callee = Inst.Indirect _; _ } ->
        Bytes.set role n r_delta;
        ignore (Bitset.add t.delta n);
        Hashtbl.replace t.consume (key n obj)
          (Version.fresh t.vt ~table_label:"delta-aout")
      | _ -> ())
    | _ -> ()
  done;
  Stats.add "vsfs.prelabels" (Version.n_prelabels t.vt);
  label_objects t role groups;
  t.n_versions <- count_versions t.consume t.store_yield;
  if release_labels then Version.seal t.vt;
  t.duration <- Unix.gettimeofday () -. start;
  Stats.add "vsfs.versions" t.n_versions;
  t
