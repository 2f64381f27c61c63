(** Labelled instance generation for tests and experiments.

    Every generator returns the input string together with the ground
    truth, so experiments can score recognizers without re-deciding
    membership. *)

type label =
  | In_language  (** member of L_DISJ *)
  | Not_in_language of reason

and reason =
  | Intersecting of int  (** well-shaped but DISJ = 0 with this many collisions *)
  | Malformed of string  (** violates condition (i) *)
  | Inconsistent of string  (** violates (ii) or (iii) *)

type t = { input : string; label : label; k : int }

val is_member : t -> bool

val disjoint_pair : Mathx.Rng.t -> k:int -> t
(** Uniformly random [x], then [y] drawn with [y_i = 0] wherever
    [x_i = 1] (so DISJ = 1); a member of L_DISJ. *)

val intersecting_pair : Mathx.Rng.t -> k:int -> t:int -> t
(** Random pair with exactly [t >= 1] common ones; not in L_DISJ.  It
    starts from the same draw of [x] and [y] as {!disjoint_pair}, then
    plants the collisions on a random [t]-subset. *)

val sparse_pair : Mathx.Rng.t -> k:int -> weight:int -> t
(** Both strings of Hamming weight [weight], intersection left to chance —
    the label records what was drawn.  Models the "needle" workloads. *)

val corrupt_repetition : Mathx.Rng.t -> base:t -> t
(** Flips one bit in one copy of one repetition of a well-formed input,
    breaking condition (ii) or (iii); not in L_DISJ.  The result is
    [base.input] with exactly one byte changed, at the
    {!Ldisj.offset} that its label's "bit [b] of copy [c] in
    repetition [r]" names; nothing is re-encoded.  The guard is one
    {!Ldisj.parse} of [base.input], read in place.
    @raise Invalid_argument if {!Ldisj.parse} rejects [base.input]. *)

val malformed : Mathx.Rng.t -> k:int -> t
(** Structurally broken input (wrong block length, missing separator,
    truncation...), sampled from a fixed catalogue of defect types.  The
    separator defects are placed with {!Ldisj.offset}, so the layout is
    spelled out only in {!Ldisj}. *)

val standard_suite : Mathx.Rng.t -> k:int -> t list
(** The mixed workload used by experiments E3/E4: members, intersecting
    non-members (t = 1, sqrt m, m/4), a corrupted repetition and two
    malformed inputs. *)
