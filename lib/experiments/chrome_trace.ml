(* Chrome trace-event rendering of Obs.Trace dumps, plus the structural
   linter CI runs over the emitted file.  The document deliberately
   reuses the sorted-key Json emitter: Perfetto does not care about key
   order, but keeping one emitter means one set of formatting rules. *)

module T = Obs.Trace

(* All events share one fake process; tracks are domains. *)
let pid = 1

let us_of ~t0_ns ts_ns = Int64.to_float (Int64.sub ts_ns t0_ns) /. 1e3

let json_of_value = function
  | T.Int i -> Json.Int i
  | T.Float f -> Json.Float f
  | T.Str s -> Json.Str s

let args_field args =
  match args with
  | [] -> []
  | args -> [ ("args", Json.Obj (List.map (fun (k, v) -> (k, json_of_value v)) args)) ]

let event_obj ~t0_ns (e : T.event) =
  let base =
    [
      ("name", Json.Str e.T.name);
      ("pid", Json.Int pid);
      ("tid", Json.Int e.T.domain);
      ("ts", Json.Float (us_of ~t0_ns e.T.ts_ns));
    ]
  in
  (* Flow events carry the correlating id (stringified, as Chrome
     expects) and a fixed category — both required for Perfetto to draw
     the arrow; "bp":"e" binds the finishing end to its enclosing
     slice rather than the next one. *)
  let flow_fields = [ ("cat", Json.Str "flow"); ("id", Json.Str (string_of_int e.T.flow)) ] in
  let ph, extra =
    match e.T.kind with
    | T.Begin -> ("B", [])
    | T.End -> ("E", [])
    | T.Instant -> ("i", [ ("s", Json.Str "t") ]) (* thread-scoped tick *)
    | T.Counter -> ("C", [])
    | T.Flow_start -> ("s", flow_fields)
    | T.Flow_end -> ("f", ("bp", Json.Str "e") :: flow_fields)
  in
  Json.Obj ((("ph", Json.Str ph) :: base) @ extra @ args_field e.T.args)

let metadata_objs events =
  let domains =
    List.sort_uniq compare (List.map (fun (e : T.event) -> e.T.domain) events)
  in
  let meta name tid value =
    Json.Obj
      [
        ("ph", Json.Str "M");
        ("name", Json.Str name);
        ("pid", Json.Int pid);
        ("tid", Json.Int tid);
        ("ts", Json.Float 0.0);
        ("args", Json.Obj [ ("name", Json.Str value) ]);
      ]
  in
  meta "process_name" 0 "oqsc"
  :: List.map (fun d -> meta "thread_name" d (Printf.sprintf "domain %d" d)) domains

let document (dump : T.dump) =
  Json.Obj
    [
      ("kind", Json.Str "oqsc-trace");
      ("version", Json.Int 1);
      ("displayTimeUnit", Json.Str "ms");
      ("dropped", Json.Int dump.T.dropped);
      ( "traceEvents",
        Json.List
          (metadata_objs dump.T.events
          @ List.map (event_obj ~t0_ns:dump.T.t0_ns) dump.T.events) );
    ]

let write path dump =
  let text = Json.to_string (document dump) in
  match path with
  | "-" -> print_string text
  | path ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc text)

(* ---------------------------------------------------------------- lint *)

type stats = { events : int; tracks : int; max_depth : int }

module D = Json.Decode

(* Every finding is reported, not only the first: each key is decoded
   on its own. *)
let lint doc =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let found f = try Some (f ()) with D.Error m -> errors := m :: !errors; None in
  let key o k conv = found (fun () -> D.req o k conv) in
  (* Envelope. *)
  let envelope o =
    (match key o "kind" D.str with
    | Some "oqsc-trace" | None -> ()
    | Some k -> err "kind: expected \"oqsc-trace\", got %S" k);
    (match key o "version" D.int with
    | Some 1 | None -> ()
    | Some v -> err "version: expected 1, got %d" v);
    (match key o "dropped" D.int with
    | Some 0 | None -> ()
    | Some n -> err "dropped: %d event(s) lost to a full buffer" n);
    key o "traceEvents" (D.list D.any)
  in
  let events =
    Option.join (found (fun () -> D.obj envelope (D.Root "") doc))
    |> Option.value ~default:[]
  in
  (* Per-track state: open-span name stack and the last timestamp. *)
  let tracks : (int, string list ref * float ref) Hashtbl.t =
    Hashtbl.create 8
  in
  (* Flow pairing: per flow id, how many "s" and "f" ends appeared.
     Checked set-wise after the walk (not positionally) because the
     two ends of one flow live on different tracks. *)
  let flows : (string, int ref * int ref) Hashtbl.t = Hashtbl.create 8 in
  let flow_slot id =
    match Hashtbl.find_opt flows id with
    | Some s -> s
    | None ->
        let s = (ref 0, ref 0) in
        Hashtbl.add flows id s;
        s
  in
  let max_depth = ref 0 and counted = ref 0 in
  let event i o =
    match D.req o "ph" D.str with
    | "M" -> ()
    | ph -> (
        incr counted;
        let name = Option.value (key o "name" D.str) ~default:"" in
        let tid = key o "tid" D.number in
        let ts = key o "ts" D.number in
        match (tid, ts) with
        | None, _ | _, None -> ()
        | Some tid, Some ts -> (
            let tid = int_of_float tid in
            let stack, last_ts =
              match Hashtbl.find_opt tracks tid with
              | Some s -> s
              | None ->
                  let s = (ref [], ref neg_infinity) in
                  Hashtbl.add tracks tid s;
                  s
            in
            if ts < !last_ts then
              err "event %d: ts %g decreases (track %d was at %g)" i ts tid
                !last_ts;
            last_ts := ts;
            match ph with
            | "B" ->
                stack := name :: !stack;
                max_depth := max !max_depth (List.length !stack)
            | "E" -> (
                match !stack with
                | [] -> err "event %d: E %S on track %d with no open span" i name tid
                | top :: rest ->
                    if name <> "" && name <> top then
                      err "event %d: E %S closes open span %S on track %d" i
                        name top tid;
                    stack := rest)
            | "i" | "C" -> ()
            | "s" | "f" -> (
                match key o "id" D.str with
                | None -> ()
                | Some id ->
                    let starts, ends = flow_slot id in
                    if ph = "s" then Stdlib.incr starts else Stdlib.incr ends)
            | ph -> err "event %d: unknown ph %S" i ph))
  in
  List.iteri
    (fun i ev ->
      let label = Printf.sprintf "event %d" i in
      ignore (found (fun () -> D.obj (event i) (D.Root label) ev)))
    events;
  Hashtbl.iter
    (fun tid (stack, _) ->
      List.iter (fun name -> err "track %d: span %S never closed" tid name) !stack)
    tracks;
  Hashtbl.iter
    (fun id (starts, ends) ->
      if !starts <> 1 || !ends <> 1 then
        err "flow %s: %d start(s) and %d finish(es) (want exactly one each)" id
          !starts !ends)
    flows;
  if !errors = [] then
    Ok { events = !counted; tracks = Hashtbl.length tracks; max_depth = !max_depth }
  else Error (List.rev !errors)
