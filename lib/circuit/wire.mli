(** The output format of Definition 2.3.

    A quantum online machine writes, on its one-way output tape, a word

    {v a1#b1#c1#a2#b2#c2#...#ar#br#cr v}

    where each [ci] in {0,1,2} selects a gate of the universal set
    (0 = H, 1 = T, 2 = CNOT) and [ai], [bi] are qubit indices.  For the
    one-qubit gates only [ai] is used; for CNOT, [ai] is the control and
    [bi] the target; the convention [ai = bi] denotes the identity (a
    no-op the machine may emit while thinking). *)

val emit : Circ.t -> string
(** Serialises a basis-only circuit.
    @raise Invalid_argument if the circuit contains structured gates. *)

val emit_gate : Buffer.t -> first:bool -> Gate.t -> unit
(** Streaming emission: appends ["a#b#c"] (with a leading ["#"] unless
    [first]) — this is what the online machine does gate by gate. *)

val parse : nqubits:int -> string -> Circ.t
(** Parses the wire format back into a circuit (identity triples are
    dropped).  @raise Invalid_argument on malformed input. *)

val gate_count : string -> int
(** Number of gate triples in a wire string (identities included), without
    building the circuit. *)
