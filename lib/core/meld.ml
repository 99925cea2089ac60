(* Node kinds, one byte per node. *)
let k_flows = '\000'  (* receives, and yields its own label *)
let k_fixed = '\001'  (* receives, but always yields [fixed_yield] *)
let k_frozen = '\002'  (* never receives; yields its initial label *)

type t = {
  mutable n : int;
  mutable n_edges : int;
  mutable last_src : int;  (* highest node whose successors were added *)
  mutable kind : Bytes.t;
  mutable label : Version.t array;
  mutable fixed_yield : Version.t array;
  (* CSR: the successors of u are adj.(first.(u)) .. adj.(first.(u+1) - 1) *)
  mutable first : int array;
  mutable adj : int array;
  (* Tarjan scratch, sized with the node arrays *)
  mutable index : int array;  (* -1 unvisited; max_int once in a component *)
  mutable low : int array;
  mutable cursor : int array;
  mutable stack : int array;
  mutable calls : int array;
  mutable order : int array;  (* nodes in component emission order *)
  mutable bounds : int array;  (* component c ends before order.(bounds.(c)) *)
}

let create () =
  {
    n = 0; n_edges = 0; last_src = -1; kind = Bytes.empty; label = [||];
    fixed_yield = [||]; first = [| 0 |]; adj = [||]; index = [||]; low = [||];
    cursor = [||]; stack = [||]; calls = [||]; order = [||]; bounds = [||];
  }

let clear t =
  t.n <- 0;
  t.n_edges <- 0;
  t.last_src <- -1

let n_nodes t = t.n

let grow_nodes t =
  let cap = max 16 (2 * Array.length t.label) in
  let extend a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 t.n;
    a'
  in
  let kind = Bytes.make cap k_flows in
  Bytes.blit t.kind 0 kind 0 t.n;
  t.kind <- kind;
  t.label <- extend t.label Version.epsilon;
  t.fixed_yield <- extend t.fixed_yield Version.epsilon;
  let first = Array.make (cap + 1) 0 in
  Array.blit t.first 0 first 0 (t.n + 1);
  t.first <- first;
  (* scratch: contents are rebuilt by every [solve] *)
  t.index <- Array.make cap 0;
  t.low <- Array.make cap 0;
  t.cursor <- Array.make cap 0;
  t.stack <- Array.make cap 0;
  t.calls <- Array.make cap 0;
  t.order <- Array.make cap 0;
  t.bounds <- Array.make cap 0

let add t kind label fixed_yield =
  if t.n = Array.length t.label then grow_nodes t;
  let u = t.n in
  Bytes.unsafe_set t.kind u kind;
  t.label.(u) <- label;
  t.fixed_yield.(u) <- fixed_yield;
  t.n <- u + 1;
  u

let add_node t init = add t k_flows init Version.epsilon
let add_frozen t init = add t k_frozen init Version.epsilon
let add_fixed t y = add t k_fixed Version.epsilon y

let add_edge t u v =
  if u < t.last_src || u >= t.n || v < 0 || v >= t.n then
    invalid_arg "Meld.add_edge: node out of range or sources out of order";
  (* close the (possibly empty) successor ranges of the nodes skipped *)
  for w = t.last_src + 1 to u do
    t.first.(w) <- t.n_edges
  done;
  t.last_src <- u;
  if t.n_edges = Array.length t.adj then begin
    let adj = Array.make (max 16 (2 * t.n_edges)) 0 in
    Array.blit t.adj 0 adj 0 t.n_edges;
    t.adj <- adj
  end;
  t.adj.(t.n_edges) <- v;
  t.n_edges <- t.n_edges + 1

let yield t u =
  if Bytes.unsafe_get t.kind u = k_fixed then t.fixed_yield.(u) else t.label.(u)

let label t u = t.label.(u)

let iter_edges t f =
  for u = 0 to t.n - 1 do
    for e = t.first.(u) to t.first.(u + 1) - 1 do
      f u t.adj.(e)
    done
  done

(* Iterative Tarjan over the ordering edges — those whose target flows, so
   its yield depends on what it receives. Components come out
   successors-first; returns how many there are. *)
let condense t =
  let n = t.n in
  let index = t.index and low = t.low and cursor = t.cursor in
  let stack = t.stack and calls = t.calls in
  Array.fill index 0 n (-1);
  let next_index = ref 0 and sp = ref 0 and csp = ref 0 in
  let n_out = ref 0 and n_comps = ref 0 in
  let visit v =
    index.(v) <- !next_index;
    low.(v) <- !next_index;
    incr next_index;
    cursor.(v) <- t.first.(v);
    stack.(!sp) <- v;
    incr sp;
    calls.(!csp) <- v;
    incr csp
  in
  for root = 0 to n - 1 do
    if index.(root) = -1 then begin
      visit root;
      while !csp > 0 do
        let v = calls.(!csp - 1) in
        let c = cursor.(v) in
        if c < t.first.(v + 1) then begin
          cursor.(v) <- c + 1;
          let w = t.adj.(c) in
          if Bytes.unsafe_get t.kind w = k_flows then
            if index.(w) = -1 then visit w
            else if index.(w) < low.(v) then low.(v) <- index.(w)
        end
        else begin
          decr csp;
          if low.(v) = index.(v) then begin
            let continue = ref true in
            while !continue do
              decr sp;
              let w = stack.(!sp) in
              (* finished: [index] can no longer lower anyone's [low] *)
              index.(w) <- max_int;
              t.order.(!n_out) <- w;
              incr n_out;
              if w = v then continue := false
            done;
            t.bounds.(!n_comps) <- !n_out;
            incr n_comps
          end;
          if !csp > 0 then begin
            let p = calls.(!csp - 1) in
            if low.(v) < low.(p) then low.(p) <- low.(v)
          end
        end
      done
    end
  done;
  !n_comps

let solve t table =
  for w = t.last_src + 1 to t.n do
    t.first.(w) <- t.n_edges
  done;
  t.last_src <- t.n;
  let n_comps = condense t in
  let label = t.label in
  (* Topological order: every in-edge of a component comes from one already
     pushed, so its members' labels are final when it is reached. *)
  for c = n_comps - 1 downto 0 do
    let lo = if c = 0 then 0 else t.bounds.(c - 1) and hi = t.bounds.(c) in
    if hi - lo > 1 then begin
      (* a cycle: every member flows, so all share one label *)
      let lab = ref Version.epsilon in
      for i = lo to hi - 1 do
        lab := Version.meld table !lab label.(t.order.(i))
      done;
      for i = lo to hi - 1 do
        label.(t.order.(i)) <- !lab
      done
    end;
    for i = lo to hi - 1 do
      let u = t.order.(i) in
      let y = yield t u in
      if not (Version.is_epsilon y) then
        for e = t.first.(u) to t.first.(u + 1) - 1 do
          let v = t.adj.(e) in
          if Bytes.unsafe_get t.kind v <> k_frozen then
            label.(v) <- Version.meld table label.(v) y
        done
    done
  done

let run ?(frozen = fun _ -> false) table g ~prelabels =
  let n = Pta_graph.Digraph.n_nodes g in
  let init = Array.make n Version.epsilon in
  List.iter (fun (node, v) -> init.(node) <- v) prelabels;
  let t = create () in
  for u = 0 to n - 1 do
    ignore ((if frozen u then add_frozen else add_node) t init.(u))
  done;
  for u = 0 to n - 1 do
    Pta_graph.Digraph.iter_succs g u (fun v -> add_edge t u v)
  done;
  solve t table;
  Array.sub t.label 0 n
