(* Counters, peak gauges, and spans behind the experiment `resources`
   section.  Everything here is deterministic: no clock, no I/O, no
   randomness — installing a sink must never change what a seeded
   computation produces, only record what it spent.

   The one deliberate exception lives in the [Trace] submodule below: an
   opt-in timeline recorder that DOES read a monotonic clock.  It is
   kept entirely outside the sink/merge/snapshot path — nothing a sink
   serializes can ever depend on it — so the determinism contract above
   survives tracing untouched (CI byte-compares traced and untraced
   runs to prove it). *)

type gauge = { mutable level : int; mutable peak : int }

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  mutable span_depth : int;
}

let create () =
  { counters = Hashtbl.create 32; gauges = Hashtbl.create 8; span_depth = 0 }

(* ------------------------------------------------------------ counters *)

let counter_ref t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t.counters name r;
      r

let add t name by =
  if by < 0 then invalid_arg "Obs.add: counters are monotonic";
  let r = counter_ref t name in
  r := !r + by

let incr t name = add t name 1

let count t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

(* -------------------------------------------------------------- gauges *)

let gauge t name =
  match Hashtbl.find_opt t.gauges name with
  | Some g -> g
  | None ->
      let g = { level = 0; peak = 0 } in
      Hashtbl.add t.gauges name g;
      g

let gauge_add t name d =
  let g = gauge t name in
  g.level <- g.level + d;
  if g.level > g.peak then g.peak <- g.level

let gauge_observe t name v =
  let g = gauge t name in
  if v > g.peak then g.peak <- v

let gauge_level t name =
  match Hashtbl.find_opt t.gauges name with Some g -> g.level | None -> 0

let gauge_peak t name =
  match Hashtbl.find_opt t.gauges name with Some g -> g.peak | None -> 0

(* --------------------------------------------------------------- spans *)

let span_depth t = t.span_depth

let with_span t name f =
  add t ("span." ^ name) 1;
  t.span_depth <- t.span_depth + 1;
  gauge_observe t "span.depth" t.span_depth;
  Fun.protect ~finally:(fun () -> t.span_depth <- t.span_depth - 1) f

(* ----------------------------------------------------- snapshot, merge *)

let snapshot t =
  let entries =
    Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counters []
  in
  let entries =
    Hashtbl.fold
      (fun name g acc -> (name ^ ".peak", g.peak) :: acc)
      t.gauges entries
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) entries

let merge ~into src =
  Hashtbl.iter (fun name r -> add into name !r) src.counters;
  Hashtbl.iter
    (fun name g ->
      let dst = gauge into name in
      dst.level <- dst.level + g.level;
      if g.peak > dst.peak then dst.peak <- g.peak)
    src.gauges

(* --------------------------------------------------------------- trace *)

module Trace = struct
  (* Timed-event timeline, exported as Chrome trace-event JSON by
     [Experiments.Chrome_trace].  Unlike the sink above this reads a
     monotonic clock, so it is opt-in ([start]/[stop]) and never feeds
     the gated [resources] path: recording appends to per-domain
     buffers that only [stop] ever reads. *)

  type value = Int of int | Float of float | Str of string
  type kind = Begin | End | Instant | Counter | Flow_start | Flow_end

  type event = {
    kind : kind;
    name : string;
    ts_ns : int64;
    domain : int;
    args : (string * value) list;
    flow : int;
  }

  let dummy =
    { kind = Instant; name = ""; ts_ns = 0L; domain = 0; args = []; flow = 0 }

  (* Bounded per-domain buffer.  Full buffers drop new events (counted
     in [dropped]) rather than old ones, so the surviving prefix keeps
     every span begin/end pairing it contains. *)
  type ring = {
    ring_domain : int;
    cap : int;
    mutable buf : event array;
    mutable len : int;
    mutable dropped : int;
  }

  type dump = { t0_ns : int64; events : event list; dropped : int }

  let default_capacity = 1 lsl 16

  let enabled_flag = Atomic.make false
  let session = Atomic.make 0
  let t0 = Atomic.make 0L
  let capacity = Atomic.make default_capacity
  let registry_lock = Mutex.create ()
  let rings : ring list ref = ref []

  let enabled () = Atomic.get enabled_flag

  let now_ns () = Monotonic_clock.now ()

  (* The calling domain's ring for the current session, created and
     registered on first use.  DLS keeps the common path lock-free; the
     mutex is only taken once per (domain, session). *)
  let ring_key : (int * ring) option Domain.DLS.key =
    Domain.DLS.new_key (fun () -> None)

  let my_ring () =
    let current = Atomic.get session in
    match Domain.DLS.get ring_key with
    | Some (s, r) when s = current -> r
    | _ ->
        let r =
          {
            ring_domain = (Domain.self () :> int);
            cap = Atomic.get capacity;
            buf = Array.make 64 dummy;
            len = 0;
            dropped = 0;
          }
        in
        Mutex.lock registry_lock;
        rings := r :: !rings;
        Mutex.unlock registry_lock;
        Domain.DLS.set ring_key (Some (current, r));
        r

  let push r e =
    if r.len >= r.cap then r.dropped <- r.dropped + 1
    else begin
      if r.len = Array.length r.buf then begin
        let bigger =
          Array.make (min r.cap (2 * Array.length r.buf)) dummy
        in
        Array.blit r.buf 0 bigger 0 r.len;
        r.buf <- bigger
      end;
      r.buf.(r.len) <- e;
      r.len <- r.len + 1
    end

  let emit ?(flow = 0) kind name args =
    let r = my_ring () in
    push r
      { kind; name; ts_ns = now_ns (); domain = r.ring_domain; args; flow }

  let start ?capacity:(cap = default_capacity) () =
    if cap < 1 then invalid_arg "Obs.Trace.start: capacity must be positive";
    Mutex.lock registry_lock;
    rings := [];
    Mutex.unlock registry_lock;
    Atomic.set capacity cap;
    Atomic.incr session;
    Atomic.set t0 (now_ns ());
    Atomic.set enabled_flag true

  let stop () =
    Atomic.set enabled_flag false;
    Mutex.lock registry_lock;
    let collected = !rings in
    rings := [];
    Mutex.unlock registry_lock;
    let events =
      List.concat_map
        (fun r -> Array.to_list (Array.sub r.buf 0 r.len))
        collected
    in
    (* Per-ring order is already chronological (one domain, monotonic
       clock); a stable sort on the timestamp interleaves the rings
       without reordering any ring's own events. *)
    let events =
      List.stable_sort (fun a b -> Int64.compare a.ts_ns b.ts_ns) events
    in
    {
      t0_ns = Atomic.get t0;
      events;
      dropped =
        List.fold_left (fun acc (r : ring) -> acc + r.dropped) 0 collected;
    }

  (* Live view of the ring drop counters: what [stop] would report as
     [dropped] if it ran now.  Reading never perturbs recording, so a
     long-lived server can surface saturation (the serve stats reply
     does) without ending the session. *)
  let dropped () =
    Mutex.lock registry_lock;
    let n = List.fold_left (fun acc (r : ring) -> acc + r.dropped) 0 !rings in
    Mutex.unlock registry_lock;
    n

  let instant ?(args = []) name =
    if Atomic.get enabled_flag then emit Instant name args

  let flow_start ?(args = []) ~id name =
    if Atomic.get enabled_flag then emit ~flow:id Flow_start name args

  let flow_end ?(args = []) ~id name =
    if Atomic.get enabled_flag then emit ~flow:id Flow_end name args

  let counter name samples =
    if Atomic.get enabled_flag then
      emit Counter name (List.map (fun (k, v) -> (k, Float v)) samples)

  let with_span ?(args = []) name f =
    if not (Atomic.get enabled_flag) then f ()
    else begin
      emit Begin name args;
      Fun.protect ~finally:(fun () -> emit End name []) f
    end
end

(* ------------------------------------------------------------- metrics *)

module Metrics = struct
  (* Process-wide operational metrics for long-lived servers: monotonic
     counters, gauges, and log2-bucketed histograms behind one mutex per
     registry.  Like [Trace], this layer is strictly write-only with
     respect to the gated determinism contract: nothing a sink or a
     payload serializes ever reads a metric.  Rendering is deterministic
     — names sort, buckets have fixed boundaries — so two registries fed
     the same samples render byte-identically. *)

  let bucket_count = 32

  (* Bucket i < 31 holds samples in (2^(i-1), 2^i] (bucket 0: v <= 1,
     including every non-finite or negative sample); the last bucket is
     the +Inf overflow.  Upper bounds are inclusive, matching the
     Prometheus [le] convention, so cumulative bucket counts are exact
     at the boundaries. *)
  let bucket_index v =
    if not (v > 1.0) then 0
    else
      let rec go i bound =
        if i >= bucket_count - 1 then bucket_count - 1
        else if v <= bound then i
        else go (i + 1) (bound *. 2.0)
      in
      go 1 2.0

  let bucket_upper i =
    if i < 0 || i >= bucket_count then
      invalid_arg "Obs.Metrics.bucket_upper: index out of range";
    if i = bucket_count - 1 then infinity else Float.of_int (1 lsl i)

  type hist = { counts : int array; mutable total : int; mutable sum : float }
  type cell = C_counter of int ref | C_gauge of int ref | C_hist of hist
  type registry = { rlock : Mutex.t; cells : (string, cell) Hashtbl.t }

  let create_registry () =
    { rlock = Mutex.create (); cells = Hashtbl.create 32 }

  let default = create_registry ()

  (* Names double as Prometheus metric names and JSON keys; restricting
     the alphabet here keeps both renderers escape-free. *)
  let name_ok name =
    name <> ""
    && (match name.[0] with 'A' .. 'Z' | 'a' .. 'z' | '_' -> true | _ -> false)
    && String.for_all
         (function
           | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | ':' -> true
           | _ -> false)
         name

  let cell r name make =
    match Hashtbl.find_opt r.cells name with
    | Some c -> c
    | None ->
        if not (name_ok name) then
          invalid_arg
            (Printf.sprintf
               "Obs.Metrics: invalid metric name %S (want [A-Za-z_][A-Za-z0-9_:]*)"
               name);
        let c = make () in
        Hashtbl.add r.cells name c;
        c

  let kind_clash name =
    invalid_arg
      (Printf.sprintf "Obs.Metrics: %S already registered with another type"
         name)

  let counter_add ?(registry = default) name by =
    if by < 0 then invalid_arg "Obs.Metrics.counter_add: counters are monotonic";
    Mutex.protect registry.rlock (fun () ->
        match cell registry name (fun () -> C_counter (ref 0)) with
        | C_counter c -> c := !c + by
        | _ -> kind_clash name)

  let counter_incr ?registry name = counter_add ?registry name 1

  let gauge_set ?(registry = default) name v =
    Mutex.protect registry.rlock (fun () ->
        match cell registry name (fun () -> C_gauge (ref 0)) with
        | C_gauge g -> g := v
        | _ -> kind_clash name)

  let gauge_add ?(registry = default) name d =
    Mutex.protect registry.rlock (fun () ->
        match cell registry name (fun () -> C_gauge (ref 0)) with
        | C_gauge g -> g := !g + d
        | _ -> kind_clash name)

  let fresh_hist () =
    C_hist { counts = Array.make bucket_count 0; total = 0; sum = 0.0 }

  let observe ?(registry = default) name v =
    Mutex.protect registry.rlock (fun () ->
        match cell registry name fresh_hist with
        | C_hist h ->
            let i = bucket_index v in
            h.counts.(i) <- h.counts.(i) + 1;
            h.total <- h.total + 1;
            if Float.is_finite v then h.sum <- h.sum +. v
        | _ -> kind_clash name)

  type data =
    | Counter of int
    | Gauge of int
    | Histogram of { counts : int array; total : int; sum : float }

  type snapshot = (string * data) list

  let snapshot ?(registry = default) () =
    Mutex.protect registry.rlock (fun () ->
        Hashtbl.fold
          (fun name c acc ->
            let d =
              match c with
              | C_counter r -> Counter !r
              | C_gauge r -> Gauge !r
              | C_hist h ->
                  Histogram
                    { counts = Array.copy h.counts; total = h.total; sum = h.sum }
            in
            (name, d) :: acc)
          registry.cells [])
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  (* Snapshot the source outside the destination's lock — the two
     registries are never locked at once, so merge directions cannot
     deadlock each other. *)
  let merge ~into src =
    let snap = snapshot ~registry:src () in
    List.iter
      (fun (name, d) ->
        match d with
        | Counter n -> counter_add ~registry:into name n
        | Gauge n -> gauge_add ~registry:into name n
        | Histogram { counts; total; sum } ->
            Mutex.protect into.rlock (fun () ->
                match cell into name fresh_hist with
                | C_hist h ->
                    Array.iteri
                      (fun i c -> h.counts.(i) <- h.counts.(i) + c)
                      counts;
                    h.total <- h.total + total;
                    h.sum <- h.sum +. sum
                | _ -> kind_clash name))
      snap

  let float_repr v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
    else
      let s = Printf.sprintf "%.12g" v in
      if String.for_all (function '-' | '0' .. '9' -> true | _ -> false) s then s ^ ".0"
      else s

  let to_prometheus snap =
    let b = Buffer.create 1024 in
    let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    List.iter
      (fun (name, d) ->
        match d with
        | Counter n -> pr "# TYPE %s counter\n%s %d\n" name name n
        | Gauge n -> pr "# TYPE %s gauge\n%s %d\n" name name n
        | Histogram { counts; total; sum } ->
            pr "# TYPE %s histogram\n" name;
            let cum = ref 0 in
            Array.iteri
              (fun i c ->
                cum := !cum + c;
                let le =
                  if i = bucket_count - 1 then "+Inf"
                  else string_of_int (1 lsl i)
                in
                pr "%s_bucket{le=%S} %d\n" name le !cum)
              counts;
            pr "%s_sum %s\n" name (float_repr sum);
            pr "%s_count %d\n" name total)
      snap;
    Buffer.contents b
end

(* --------------------------------------------------------------- scope *)

module Scope = struct
  let key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

  let current () = Domain.DLS.get key

  let with_sink sink f =
    let prev = Domain.DLS.get key in
    Domain.DLS.set key (Some sink);
    Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f

  let add name by =
    match Domain.DLS.get key with None -> () | Some t -> add t name by

  let incr name =
    match Domain.DLS.get key with None -> () | Some t -> incr t name

  let gauge_add name d =
    match Domain.DLS.get key with None -> () | Some t -> gauge_add t name d

  let gauge_observe name v =
    match Domain.DLS.get key with None -> () | Some t -> gauge_observe t name v

  (* Scoped spans are the one probe that feeds both layers: the gated
     [span.<name>] counter on the ambient sink (when installed) and,
     when tracing is on, a timed slice under the same name — so the
     counters and the timeline stay in sync by construction. *)
  let with_span name f =
    Trace.with_span name (fun () ->
        match Domain.DLS.get key with
        | None -> f ()
        | Some t -> with_span t name f)
end
