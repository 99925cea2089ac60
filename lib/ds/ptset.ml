(* Hash-consed points-to sets.

   A set is an [int] id into a domain-local intern pool of canonical sets:
   structurally equal sets always share one id (and one heap
   representation), so set equality is integer equality and every solver
   that materialises "the same set at a thousand program points" stores it
   once. On top of the pool sit memo caches for the hot operations —
   [add], [union] and [union_delta] — keyed by operand ids: once a union
   of two interned sets has been computed, every later occurrence on the
   same domain is a single hash-table probe. [union_delta] additionally
   returns the interned set of elements actually added, which is what makes
   difference propagation in the flow-sensitive solvers fall out for free.

   The canonical value behind an id is a two-level [Hibitset]:
   hash-consed 1008-element blocks shared *across* interned sets under
   per-group summary words, so set operations skip untouched regions
   wholesale instead of walking words proportional to the universe, which
   drowns near 10^6 objects. A flat [Bitset] is only materialised at the
   boundary ([view]).

   All ids and elements must stay below 2^31 so that an (id, id) or
   (id, element) pair packs into one OCaml int; the packing is checked, not
   assumed (cf. the silent collision the unchecked VSFS key had). *)

module HC = Hashcons.Make (struct
  type t = Hibitset.t

  let equal = Hibitset.equal
  let hash = Hibitset.hash
end)

type t = int

type state = {
  pool : HC.t; (* canonical sets *)
  views : (int, Bitset.t) Hashtbl.t; (* flat views, memoized *)
  add_memo : (int, int) Hashtbl.t;
  union_memo : (int, int) Hashtbl.t;
  delta_memo : (int, int * int) Hashtbl.t;
  diff_memo : (int, int) Hashtbl.t;
}

let fresh_state () =
  let pool = HC.create 4096 in
  let eps = HC.intern pool Hibitset.empty in
  assert (eps = 0);
  {
    pool;
    views = Hashtbl.create 1024;
    add_memo = Hashtbl.create 4096;
    union_memo = Hashtbl.create 4096;
    delta_memo = Hashtbl.create 4096;
    diff_memo = Hashtbl.create 1024;
  }

(* The pool and memo tables are confined to the domain that uses them
   ([Domain.DLS]): each worker domain of a parallel batch gets a fresh,
   unshared generation on first use, so interning needs no locks and ids
   never leak meaning across domains. The flip side is a sharp ownership
   rule — an id is only valid on the domain (and generation) that interned
   it, so values crossing domains must carry [Bitset]s (or other plain
   data), never [Ptset.t]. *)
let dls_state = Domain.DLS.new_key fresh_state
let state () = Domain.DLS.get dls_state

let reset () =
  (* Block ids inside interned [Hibitset]s point into [Hibitset]'s own
     domain-local pool; the two generations roll over together. *)
  Hibitset.reset_pool ();
  Domain.DLS.set dls_state (fresh_state ())

let empty = 0
let is_empty id = id = 0
let equal : t -> t -> bool = Int.equal
let hash (id : t) = id
let compare_id : t -> t -> int = Int.compare

(* Memo keys pack two ids (or an id and an element) into one OCaml int, so
   both halves are bounded by a *named, checked* width — large enough for
   ~2·10^9 interned sets or abstract objects, i.e. three orders of
   magnitude above the mega workload's ~10^6. *)
let key_bits = 31
let key_limit = 1 lsl key_bits

let pack a b =
  if a < 0 || b < 0 || a >= key_limit || b >= key_limit then
    invalid_arg "Ptset: id or element exceeds the 31-bit packed-key range";
  (a lsl key_bits) lor b

(* Canonical value accessors. [hview] is the pooled [Hibitset]; [view]
   materialises (and memoizes) a flat [Bitset] per id, so it is a
   boundary/report operation, never a solver-loop one. *)
let hview id = HC.get (state ()).pool id

let view id =
  let st = state () in
  match Hashtbl.find_opt st.views id with
  | Some s -> s
  | None ->
    let s = Hibitset.to_bitset (HC.get st.pool id) in
    Hashtbl.add st.views id s;
    s

let intern h =
  let st = state () in
  match HC.find_opt st.pool h with
  | Some id -> id
  | None ->
    Stats.incr "ptset.interned";
    HC.intern st.pool h

let of_bitset s = intern (Hibitset.of_bitset s)
let of_list l = intern (Hibitset.of_list l)
let mem id x = Hibitset.mem (hview id) x

let add id x =
  if mem id x then id
  else begin
    let st = state () in
    let key = pack id x in
    match Hashtbl.find_opt st.add_memo key with
    | Some r ->
      Stats.incr "ptset.add_hits";
      r
    | None ->
      Stats.incr "ptset.add_misses";
      let r = intern (Hibitset.add (hview id) x) in
      Hashtbl.add st.add_memo key r;
      r
  end

let singleton x = add empty x

let union a b =
  if a = b || b = empty then a
  else if a = empty then b
  else begin
    let st = state () in
    let key = pack (min a b) (max a b) in
    match Hashtbl.find_opt st.union_memo key with
    | Some r ->
      Stats.incr "ptset.union_hits";
      r
    | None ->
      Stats.incr "ptset.union_misses";
      let sa = hview a and sb = hview b in
      (* Subset fast paths return an existing id without allocating. *)
      let r =
        if Hibitset.subset sb sa then a
        else if Hibitset.subset sa sb then b
        else intern (Hibitset.union sa sb)
      in
      Hashtbl.add st.union_memo key r;
      r
  end

let union_delta a b =
  if a = b || b = empty then (a, empty)
  else if a = empty then (b, b)
  else begin
    let st = state () in
    let key = pack a b in
    match Hashtbl.find_opt st.delta_memo key with
    | Some r ->
      Stats.incr "ptset.delta_hits";
      r
    | None ->
      Stats.incr "ptset.delta_misses";
      let ukey = pack (min a b) (max a b) in
      let r =
        match Hashtbl.find_opt st.union_memo ukey with
        | Some uid ->
          (* The union is already cached (either order) — only the delta
             remains. *)
          let d = Hibitset.diff (hview b) (hview a) in
          if Hibitset.is_empty d then (a, empty) else (uid, intern d)
        | None ->
          let sa = hview a and sb = hview b in
          let u, d = Hibitset.union_delta sa sb in
          if Hibitset.is_empty d then (a, empty)
          else begin
            let uid = intern u in
            (* Seed the commutative union cache so a later [union a b] is
               a probe. *)
            Hashtbl.add st.union_memo ukey uid;
            (uid, intern d)
          end
      in
      Hashtbl.add st.delta_memo key r;
      r
  end

let diff a b =
  if a = b || b = empty then if b = empty then a else empty
  else if a = empty then empty
  else begin
    let st = state () in
    let key = pack a b in
    match Hashtbl.find_opt st.diff_memo key with
    | Some r ->
      Stats.incr "ptset.diff_hits";
      r
    | None ->
      Stats.incr "ptset.diff_misses";
      let r = intern (Hibitset.diff (hview a) (hview b)) in
      Hashtbl.add st.diff_memo key r;
      r
  end

let inter a b =
  if a = b then a
  else if a = empty || b = empty then empty
  else intern (Hibitset.inter (hview a) (hview b))

let subset a b = a = b || Hibitset.subset (hview a) (hview b)
let cardinal id = Hibitset.cardinal (hview id)
let iter f id = Hibitset.iter f (hview id)
let fold f id acc = Hibitset.fold f (hview id) acc
let elements id = Hibitset.elements (hview id)
let choose id = Hibitset.choose (hview id)
let words id = Hibitset.words (hview id)
let n_unique () = HC.count (state ()).pool

(* Per-set skeletons plus each distinct block's content once — the honest
   pool-wide footprint under block sharing. *)
let pool_words () =
  let total = ref (Hibitset.pool_block_words ()) in
  HC.iter (fun _ h -> total := !total + Hibitset.skeleton_words h)
    (state ()).pool;
  !total

let pp ppf id = Hibitset.pp ppf (hview id)

(* ---------- shared-footprint accounting ---------- *)

module Tally = struct
  type nonrec t = {
    seen : Bitset.t; (* distinct set ids *)
    blocks : Bitset.t; (* distinct block ids across seen sets *)
    mutable skel : int; (* Σ skeleton words over distinct sets *)
    mutable refs : int;
    mutable unshared : int;
  }

  let create () =
    {
      seen = Bitset.create ();
      blocks = Bitset.create ();
      skel = 0;
      refs = 0;
      unshared = 0;
    }

  let visit tl id =
    tl.refs <- tl.refs + 1;
    tl.unshared <- tl.unshared + words id;
    if Bitset.add tl.seen id then begin
      let h = hview id in
      tl.skel <- tl.skel + Hibitset.skeleton_words h;
      Hibitset.iter_blocks (fun b -> ignore (Bitset.add tl.blocks b)) h
    end

  let unique tl = Bitset.cardinal tl.seen
  let refs tl = tl.refs
  let unshared_words tl = tl.unshared
  let unique_blocks tl = Bitset.cardinal tl.blocks

  let block_words tl =
    Bitset.fold (fun b acc -> acc + Hibitset.block_heap_words b) tl.blocks 0

  let shared_words tl = tl.refs + tl.skel + block_words tl
end
