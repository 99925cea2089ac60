(** Pluggable worklist policies for the fixpoint engine.

    One [strategy] type serves every solver (they used to declare their own
    [`Fifo | `Topo] variants); the CLI's [--scheduler] flag and the bench
    ablations enumerate {!all}. Policies only affect the *order* of
    processing — monotone solvers reach the same fixpoint under each (the
    fuzzer's [sched] oracle and [make engine-smoke] enforce this). *)

type strategy =
  [ `Fifo  (** classic breadth-first worklist *)
  | `Topo  (** smallest static rank first — SCC-topological order *)
  | `Lrf  (** least recently fired first; starved nodes surface early *) ]

val name : strategy -> string
(** ["fifo" | "topo" | "lrf"] — used in telemetry records and CLI. *)

val all : strategy list

val assoc : (string * strategy) list
(** [(name s, s)] for {!all} — ready for [Cmdliner.Arg.enum]. *)

type t

val make : ?rank:(int -> int) -> strategy -> t
(** [`Topo] requires [~rank] (smaller processes first; it is re-read at pop
    time, so a mutable ranking — Andersen's SCC collapses — is fine) and
    raises [Invalid_argument] without it; the other strategies ignore it. *)

val push : t -> int -> bool
(** [false]: the item was already queued (a duplicate push). *)

val pop : t -> int option
val length : t -> int
val is_empty : t -> bool
