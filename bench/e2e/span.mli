(** The benchmark's own span recorder.

    The traced pass brackets calls into each layer's public functions
    with spans kept in memory and handed to the parent process at exit.
    It deliberately does not use [Obs.Trace]: the library's internal
    gate-kernel spans would fill that 65 536-event ring within
    milliseconds of a k = 7 recognizer run. *)

type span = {
  name : string;
  parent : int;  (** index of the enclosing span, [-1] at top level *)
  start_ns : int;  (** [Obs.Trace.now_ns], the system-wide monotonic clock *)
  stop_ns : int;
  count : int;  (** work items the span covers (symbols, pairs, requests) *)
  words : float;  (** minor-heap words allocated inside the span *)
}

type t

val create : unit -> t
(** A recording recorder. *)

val off : t
(** A recorder that records nothing: {!record} is exactly [f ()]. *)

val enabled : t -> bool

val now_ns : unit -> int
(** [Obs.Trace.now_ns] as a native int. *)

val measure : t -> ?count:int -> string -> (unit -> 'a) -> 'a * span
(** [measure t name f] runs [f] inside a span named [name] ([count]
    defaults to 1) and returns its result with the closed span.  The
    span is kept only when [t] is {!enabled}; the measurement is taken
    either way. *)

val record : t -> ?count:int -> string -> (unit -> 'a) -> 'a
(** {!measure} without the span. *)

val spans : t -> span array
(** Every closed span in start order; a span's index is the [parent] its
    children name.  Call once every span has closed. *)

val self_ns : span array -> int array
(** A span's duration minus the part of it its direct children cover. *)

val coverage : span array -> lo:int -> hi:int -> float
(** Share of [[lo, hi]] covered by top-level spans. *)

val to_json : span -> Experiments.Json.t
val of_json : Experiments.Json.t -> (span, string) result

val dump : span array list -> Obs.Trace.dump
(** The spans of several recorders as one trace, one track per
    recorder, ready for [Experiments.Chrome_trace.write]. *)
