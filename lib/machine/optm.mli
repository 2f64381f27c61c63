(** Online probabilistic Turing machines (§2.1).

    An OPTM has a one-way read-only input tape over [{0,1,#}], a two-way
    read-write work tape, and probabilistic transitions.  The transition
    function is given as an OCaml closure over a finite control-state set;
    a {e configuration} (Fact 2.2) is the control state, the two head
    positions and the work-tape contents.

    This simulator exists for the lower-bound machinery: enumerate the
    configurations reachable with positive probability, observe them at
    input-position cuts (the proof of Theorem 3.6 sends exactly these as
    protocol messages), and compare the census against the Fact 2.2
    counting bound. *)

type move = Left | Right | Stay

type action = {
  next_state : int;
  write : Symbol.work;  (** symbol written under the work head *)
  work_move : move;
  advance_input : bool;  (** the input head may only move right *)
  emit : char option;
      (** symbol appended to the one-way write-only output tape (the
          channel a Definition 2.3 machine writes its circuit on) *)
}

type step =
  | Halt of bool  (** accept/reject *)
  | Branch of (action * float) list
      (** probability distribution over actions (weights must sum to 1) *)

type t = {
  name : string;
  num_states : int;
  start_state : int;
  delta : state:int -> input:Symbol.t option -> work:Symbol.work -> step;
}

type config = {
  state : int;
  input_pos : int;
  work_pos : int;
  work : string;  (** work tape, blank-trimmed, ['_'] for blank *)
}

type stats = { steps : int; peak_work_cells : int; halted : bool }

val validate : t -> unit
(** Checks state bounds and that every [Branch] is a distribution.
    Exercises [delta] on a sample of arguments; raises on violations. *)

val run_deterministic : ?max_steps:int -> t -> string -> bool option * stats
(** Runs a machine whose every [Branch] has a single action.  Returns
    [Some verdict] on halt, [None] if [max_steps] (default 10^7) elapsed.
    @raise Invalid_argument on a genuinely probabilistic branch. *)

val run_deterministic_with_output :
  ?max_steps:int -> t -> string -> (bool option * stats) * string
(** Like {!run_deterministic}, also returning the output-tape contents. *)

val run_sampled_with_output :
  ?max_steps:int -> t -> Mathx.Rng.t -> string -> (bool option * stats) * string

val acceptance_probability :
  ?max_steps:int -> ?trials:int -> t -> Mathx.Rng.t -> string -> float
(** Monte-Carlo estimate of p_M(w) over [trials] (default 1000) sampled
    paths; non-halting paths count as rejection, as in Definition 2.1. *)

val reachable_configs :
  ?max_steps:int -> ?max_configs:int -> t -> string -> config list
(** All configurations reachable with positive probability on the given
    input (breadth-first; capped at [max_configs], default 10^6).
    @raise Failure if the cap is hit. *)

val configs_at_cut :
  ?max_steps:int -> ?max_configs:int -> t -> string -> cut:int -> config list
(** Configurations occurring at the first moment the input head scans
    position [cut] — the message set C^(i) of the Theorem 3.6 protocol. *)

val config_at_cut_deterministic :
  ?max_steps:int -> t -> string -> cut:int -> config option
(** Fast path for deterministic machines: follows the single computation
    path and returns the configuration at the first scan of [cut] (there
    is exactly one, or none if the head halts first).  Linear in the run
    length, no breadth-first search.
    @raise Invalid_argument on a probabilistic branch. *)

val fact_2_2_log2_bound : n:int -> s:int -> states:int -> float
(** log2 of the Fact 2.2 configuration bound [n * s * 3^s * |Q|] (with
    the work alphabet [{0,1,#,blank}] it is [4^s]; we use the paper's
    ternary bound with the blank folded into the count, i.e. [4^s]). *)
