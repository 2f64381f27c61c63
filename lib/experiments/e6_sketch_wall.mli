(** E6 — the observable consequence of Theorem 3.6: classical sketches
    below the [2^k = n^{1/3}] threshold degrade toward chance.

    Sweeps the sketch budget around the threshold and measures each
    strategy's error on its vulnerable side (the other side is error-free
    by construction):

    - bucket filter: false "intersecting" on members (hash collisions);
    - subsample: missed collisions on t = 1 intersecting inputs.

    The quantum recognizer's O(k)-bit footprint is printed alongside for
    contrast. *)

type row = {
  budget : int;
  bucket_false_claim : float;
  subsample_miss : float;
  space_bits_bucket : int;  (** full metered footprint, incl. counters *)
  space_bits_subsample : int;
}

val rows : ?quick:bool -> seed:int -> k:int -> unit -> row list

val body : ?quick:bool -> seed:int -> unit -> Report.body
(** Structured result (tables, notes, metrics) that
    [Report.render_body] renders and the JSON emitter serializes. *)
