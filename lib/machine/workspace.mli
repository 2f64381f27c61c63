(** Space-metered work memory for online algorithms.

    Every streaming algorithm in this repository (A1, A2, A3's classical
    control, the classical baselines, the sketches) allocates its state
    through a [Workspace.t] instead of ambient OCaml values.  The ledger
    charges each register its declared width, tracks the peak footprint in
    bits — the quantity the space-complexity theorems bound — and can
    snapshot the live contents, which is what the Theorem 3.6 reduction
    sends as a "configuration".

    Classical bits and qubits are metered separately, mirroring the
    paper's convention that both the classical work tape and the quantum
    register of size [s(|w|)] count toward the space bound.

    Allocations are mirrored to the ambient [Obs.Scope] as the
    [workspace.classical_bits] and [workspace.qubits] peak gauges (plus
    a [workspace.allocs] counter), so the per-experiment [resources]
    section reports the same peaks the local ledger does. *)

type t

type reg
(** A named classical register holding an integer of a fixed bit width.
    It belongs to the workspace that allocated it: every operation
    below raises [Invalid_argument "Workspace: invalid register"] when
    given another workspace's register. *)

val create : unit -> t

val alloc : t -> name:string -> bits:int -> reg
(** [alloc t ~name ~bits] allocates a zeroed register of [bits] bits
    ([1 <= bits <= 62]).  Names must be unique among the live registers
    of a workspace; a freed register's name may be reused.  The check
    is a table lookup, so allocating many registers (a {!Bitstore})
    costs time linear in their number. *)

val alloc_flag : t -> name:string -> reg
(** One-bit register. *)

val free : t -> reg -> unit
(** Releases a register (its bits leave the current footprint; the peak is
    unaffected).  @raise Invalid_argument on double free. *)

val get : t -> reg -> int
(** @raise Invalid_argument on a freed register. *)

val set : t -> reg -> int -> unit
(** @raise Invalid_argument on a freed register, or if the value does
    not fit the register width (that would be hidden extra space). *)

val incr : t -> reg -> unit
(** [incr t r] adds 1, checking width. *)

val get_flag : t -> reg -> bool
val set_flag : t -> reg -> bool -> unit

val alloc_qubits : t -> int -> unit
(** Records that the algorithm uses [n] more qubits. *)

val classical_bits : t -> int
(** Current classical footprint in bits. *)

val peak_classical_bits : t -> int
val qubits : t -> int
val peak_total_bits : t -> int
(** Peak of classical bits + qubits over the run (the paper's s(n)). *)

val snapshot : t -> string
(** Canonical serialisation of all live registers (name, width, value) —
    the machine configuration modulo tape-head positions.  Two runs whose
    future behaviour can differ must produce different snapshots as long
    as the algorithm keeps all its state in the workspace. *)
