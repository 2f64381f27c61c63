module Json = Experiments.Json

type span = {
  name : string;
  parent : int;
  start_ns : int;
  stop_ns : int;
  count : int;
  words : float;
}

type t = {
  on : bool;
  mutable next : int;
  mutable stack : int list;
  mutable closed : (int * span) list;
}

let create () = { on = true; next = 0; stack = []; closed = [] }
let off = { on = false; next = 0; stack = []; closed = [] }
let enabled t = t.on
let now_ns () = Int64.to_int (Obs.Trace.now_ns ())

let measure t ?(count = 1) name f =
  let id = t.next in
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  if t.on then begin
    t.next <- id + 1;
    t.stack <- id :: t.stack
  end;
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let close () =
    let t1 = now_ns () in
    let words = Gc.minor_words () -. w0 in
    let s = { name; parent; start_ns = t0; stop_ns = t1; count; words } in
    if t.on then begin
      t.stack <- List.tl t.stack;
      t.closed <- (id, s) :: t.closed
    end;
    s
  in
  match f () with
  | v -> (v, close ())
  | exception e ->
      ignore (close ());
      raise e

let record t ?count name f =
  if t.on then fst (measure t ?count name f) else f ()

let spans t =
  List.sort (fun (a, _) (b, _) -> compare a b) t.closed
  |> List.map snd |> Array.of_list

(* Length of the union of the intervals, each clipped to [lo, hi]. *)
let union_ns ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max lo a and b = min hi b in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, _ =
    List.fold_left
      (fun (total, reach) (a, b) ->
        let a = max a reach in
        if b > a then (total + (b - a), b) else (total, reach))
      (0, lo) clipped
  in
  total

let children spans =
  let kids = Array.make (Array.length spans) [] in
  for i = Array.length spans - 1 downto 0 do
    let p = spans.(i).parent in
    if p >= 0 then kids.(p) <- i :: kids.(p)
  done;
  kids

let self_ns spans =
  let kids = children spans in
  Array.mapi
    (fun i s ->
      let covered =
        union_ns ~lo:s.start_ns ~hi:s.stop_ns
          (List.map (fun c -> (spans.(c).start_ns, spans.(c).stop_ns)) kids.(i))
      in
      s.stop_ns - s.start_ns - covered)
    spans

let coverage spans ~lo ~hi =
  let tops =
    Array.to_list spans
    |> List.filter (fun s -> s.parent < 0)
    |> List.map (fun s -> (s.start_ns, s.stop_ns))
  in
  if hi <= lo then 0.0
  else float_of_int (union_ns ~lo ~hi tops) /. float_of_int (hi - lo)

let to_json s =
  Json.Obj
    [
      ("name", Json.Str s.name);
      ("parent", Json.Int s.parent);
      ("start_ns", Json.Int s.start_ns);
      ("stop_ns", Json.Int s.stop_ns);
      ("count", Json.Int s.count);
      ("words", Json.Float s.words);
    ]

let of_json = function
  | Json.Obj f -> (
      let get k = List.assoc_opt k f in
      let int k = match get k with Some (Json.Int i) -> Some i | _ -> None in
      let words =
        match get "words" with
        | Some (Json.Float w) -> Some w
        | Some (Json.Int w) -> Some (float_of_int w)
        | _ -> None
      in
      match
        ( get "name",
          int "parent",
          int "start_ns",
          int "stop_ns",
          int "count",
          words )
      with
      | ( Some (Json.Str name),
          Some parent,
          Some start_ns,
          Some stop_ns,
          Some count,
          Some words ) ->
          Ok { name; parent; start_ns; stop_ns; count; words }
      | _ -> Error "span: missing or ill-typed field")
  | _ -> Error "span: expected an object"

(* Depth-first order is chronological order for spans recorded from one
   stack, so each track's begin/end events come out properly nested. *)
let dump tracks =
  let module T = Obs.Trace in
  let event kind domain name ts args =
    { T.kind; name; ts_ns = Int64.of_int ts; domain; args; flow = 0 }
  in
  let track domain spans =
    let kids = children spans in
    let rec emit acc i =
      let s = spans.(i) in
      let args = [ ("count", T.Int s.count); ("words", T.Float s.words) ] in
      let acc = event T.Begin domain s.name s.start_ns args :: acc in
      let acc = List.fold_left emit acc kids.(i) in
      event T.End domain s.name s.stop_ns [] :: acc
    in
    List.init (Array.length spans) Fun.id
    |> List.filter (fun i -> spans.(i).parent < 0)
    |> List.fold_left emit [] |> List.rev
  in
  let events = List.concat (List.mapi track tracks) in
  let by_time (a : T.event) (b : T.event) = Int64.compare a.T.ts_ns b.T.ts_ns in
  {
    T.t0_ns =
      List.fold_left (fun m (e : T.event) -> min m e.T.ts_ns) Int64.max_int
        events;
    events = List.stable_sort by_time events;
    dropped = 0;
  }
