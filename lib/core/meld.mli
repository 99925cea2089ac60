(** Meld labelling (§IV-B, Fig. 3) in one pass over the SCC condensation.

    A node's fixpoint label is the meld of the labels of everything that
    reaches it, so it does not depend on visit order. The kernel condenses
    the graph into strongly connected components, gives each component the
    meld of what enters it, and pushes the result along the component's
    out-edges in topological order: every edge is melded once.

    Nodes come in three kinds:
    - {e flowing} nodes receive, and yield what they received (the plain
      Fig. 3 process, and every non-store SVFG node: [INTERNAL]);
    - {e fixed} nodes receive, but always yield one given version (SVFG
      stores, which yield their own prelabel whatever they consume);
    - {e frozen} nodes never receive, and yield their initial label (δ
      nodes, whose prelabels stay fixed).

    Only edges into flowing nodes order the condensation; edges into fixed
    nodes are melded but never propagate further, and edges into frozen
    nodes carry nothing.

    A [t] is a reusable graph: {!Versioning} clears and refills one per
    object, so its arrays grow to the largest object's subgraph once. *)

type t

val create : unit -> t

val clear : t -> unit
(** Drops every node and edge, keeping the allocated capacity. *)

val add_node : t -> Version.t -> int
(** A flowing node with the given initial label; returns its id (ids are
    dense, from 0, in insertion order). *)

val add_frozen : t -> Version.t -> int
(** A frozen node with the given, permanent label. *)

val add_fixed : t -> Version.t -> int
(** A fixed node yielding the given version; its label starts at ε. *)

val add_edge : t -> int -> int -> unit
(** [add_edge t u v]. Sources must come in nondecreasing order (the edges
    are laid out as one compressed adjacency array).
    @raise Invalid_argument on an unknown node or an out-of-order source. *)

val n_nodes : t -> int

val solve : t -> Version.table -> unit
(** Runs meld labelling to its fixpoint. Ids of new versions depend only on
    the node and edge insertion order. Add no edges afterwards. *)

val label : t -> int -> Version.t
(** The label a node received (its consumed version); after {!solve}, the
    fixpoint. *)

val yield : t -> int -> Version.t
(** What the node passes on: its fixed version, or else its label. *)

val iter_edges : t -> (int -> int -> unit) -> unit
(** Every edge, by source. Valid after {!solve}. *)

val run :
  ?frozen:(int -> bool) ->
  Version.table ->
  Pta_graph.Digraph.t ->
  prelabels:(int * Version.t) list ->
  Version.t array
(** [run table g ~prelabels] returns the fixpoint label of every node of a
    digraph, as in the paper's Fig. 4 example. Unlisted nodes start at ε and
    nodes unreachable from any prelabelled node finish with ε. [frozen] nodes
    never change (default: none, the plain Fig. 3 process). *)
