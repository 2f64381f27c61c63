(* Wire protocol codec, versions 1 and 2.  docs/PROTOCOL.md is the
   normative spec; keep the two in lockstep — a key added here without
   a spec row is a bug the CI replay (bench-serve's strict reply
   validation) catches.

   Version negotiation is per-request: an envelope's [v] selects the
   op table it decodes against (v2 = v1 + the [metrics] op), and the
   reply echoes the request's [v].  There is no handshake and no state:
   one connection may interleave v1 and v2 requests freely. *)

module Json = Experiments.Json

let version = 1
let metrics_version = 2
let versions = [ 1; 2 ]
let max_frame = 16 * 1024 * 1024

type op =
  | Run of { exp : string; quick : bool; seed : int }
  | Sweep of { index : int; count : int; quick : bool; seed : int }
  | Ping
  | Stats
  | Metrics
  | Shutdown

type request = { v : int; id : string; op : op }

type error_code =
  | Parse_error
  | Bad_request
  | Unsupported_version
  | Unknown_op
  | Unknown_experiment
  | Bad_shard
  | Queue_full
  | Frame_error
  | Internal_error

type reply =
  | Ok_reply of
      { v : int; id : string; op : string; payload : Json.t; wall_ms : float }
  | Error_reply of
      { v : int; id : string option; code : error_code; message : string }

let codes =
  [
    (Parse_error, "parse_error");
    (Bad_request, "bad_request");
    (Unsupported_version, "unsupported_version");
    (Unknown_op, "unknown_op");
    (Unknown_experiment, "unknown_experiment");
    (Bad_shard, "bad_shard");
    (Queue_full, "queue_full");
    (Frame_error, "frame_error");
    (Internal_error, "internal_error");
  ]

let code_to_string c = List.assoc c codes

let code_of_string s =
  List.find_map (fun (c, name) -> if String.equal name s then Some c else None) codes

(* Correlation ids double as payload-dump file names (bench-serve's
   --payload-dir), so the admitted alphabet is deliberately narrow. *)
let id_ok id =
  let n = String.length id in
  n >= 1 && n <= 64
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '.' | '_' | '-' -> true | _ -> false)
       id

let op_name = function
  | Run _ -> "run"
  | Sweep _ -> "sweep"
  | Ping -> "ping"
  | Stats -> "stats"
  | Metrics -> "metrics"
  | Shutdown -> "shutdown"

(* The op names one version's decoder accepts, for diagnostics. *)
let ops_of_version v =
  [ "run"; "sweep"; "ping"; "stats"; "shutdown" ]
  @ if v >= metrics_version then [ "metrics" ] else []

(* --------------------------------------------------------- encoding *)

let request_to_json { v; id; op } =
  let base = [ ("v", Json.Int v); ("id", Json.Str id); ("op", Json.Str (op_name op)) ] in
  let args =
    match op with
    | Run { exp; quick; seed } ->
        [ ("exp", Json.Str exp); ("quick", Json.Bool quick); ("seed", Json.Int seed) ]
    | Sweep { index; count; quick; seed } ->
        [
          ("index", Json.Int index);
          ("of", Json.Int count);
          ("quick", Json.Bool quick);
          ("seed", Json.Int seed);
        ]
    | Ping | Stats | Metrics | Shutdown -> []
  in
  Json.Obj (base @ args)

let reply_to_json = function
  | Ok_reply { v; id; op; payload; wall_ms } ->
      Json.Obj
        [
          ("v", Json.Int v);
          ("id", Json.Str id);
          ("ok", Json.Bool true);
          ("op", Json.Str op);
          ("payload", payload);
          ("wall_ms", Json.Float wall_ms);
        ]
  | Error_reply { v; id; code; message } ->
      Json.Obj
        [
          ("v", Json.Int v);
          ("id", (match id with Some i -> Json.Str i | None -> Json.Null));
          ("ok", Json.Bool false);
          ( "error",
            Json.Obj
              [
                ("code", Json.Str (code_to_string code));
                ("message", Json.Str message);
              ] );
        ]

(* --------------------------------------------------------- decoding *)

(* Decoding is strict: every defined key is taken exactly once and
   [close] rejects whatever remains, which is the protocol's forward
   evolution rule — new keys require a version bump, not silence.  A
   decode failure is a [bad_request] naming the JSON path at fault; the
   other request codes are raised as [Reject], after the envelope keys
   and before the unknown-key check. *)
module D = Json.Decode

exception Reject of error_code * string

let reject code fmt = Printf.ksprintf (fun m -> raise (Reject (code, m))) fmt

type decode_error = {
  v : int;
  id : string option;
  code : error_code;
  message : string;
}

let id_field path json =
  let id = D.str path json in
  if id_ok id then id
  else D.fail path "invalid id %S (want [A-Za-z0-9._-]{1,64})" id

let quick o = Option.value (D.opt o "quick" D.bool) ~default:false
let seed o = Option.value (D.opt o "seed" D.int) ~default:2006

let read_request o =
  let v = D.req o "v" D.int in
  if not (List.mem v versions) then
    reject Unsupported_version "protocol version %d is not supported; supported: %s"
      v
      (String.concat ", " (List.map string_of_int versions));
  let id = D.req o "id" id_field in
  let op =
    match D.req o "op" D.str with
    | "run" ->
        let exp = D.req o "exp" D.str in
        let quick = quick o in
        let seed = seed o in
        if not (List.mem exp Experiments.Registry.ids) then
          reject Unknown_experiment "unknown experiment %S; valid ids: %s" exp
            (String.concat ", " Experiments.Registry.ids);
        Run { exp; quick; seed }
    | "sweep" ->
        let index = D.req o "index" D.int in
        let count = D.req o "of" D.int in
        let quick = quick o in
        let seed = seed o in
        if count < 1 || index < 0 || index >= count then
          reject Bad_shard "sweep shard %d/%d violates 0 <= index < of" index
            count;
        Sweep { index; count; quick; seed }
    | "ping" -> Ping
    | "stats" -> Stats
    | "metrics" when v >= metrics_version -> Metrics
    | "metrics" ->
        reject Unknown_op
          "op \"metrics\" requires protocol version %d (request carried \"v\": %d)"
          metrics_version v
    | "shutdown" -> Shutdown
    | other ->
        reject Unknown_op "unknown op %S; valid: %s" other
          (String.concat ", " (ops_of_version v))
  in
  D.close o;
  { v; id; op }

let request = D.obj read_request

(* Best-effort recovery of one envelope key, so an error reply stays
   correlatable and answers in the request's own version. *)
let recover key conv json =
  Result.to_option (D.run (D.obj (fun o -> D.req o key conv)) json)

let recover_id json = recover "id" id_field json

(* Error replies echo the rejected request's version when it is a
   well-formed supported one (so a v2 client's rejections come back as
   v2 envelopes), falling back to 1 — in particular a request rejected
   {e because} its version is unsupported is answered in version 1. *)
let recover_v json =
  match recover "v" D.int json with
  | Some v when List.mem v versions -> v
  | _ -> version

let request_of_json json =
  let rejected code message =
    Error { v = recover_v json; id = recover_id json; code; message }
  in
  match D.run request json with
  | Ok r -> Ok r
  | Error msg -> rejected Bad_request msg
  | exception Reject (code, msg) -> rejected code msg

let error_code path json =
  let name = D.str path json in
  match code_of_string name with
  | Some code -> code
  | None -> D.fail path "undocumented error code %S" name

let reply_version path json =
  let v = D.int path json in
  if List.mem v versions then v
  else
    D.fail path "reply version %d is not one of %s" v
      (String.concat ", " (List.map string_of_int versions))

let read_reply o =
  let v = D.req o "v" reply_version in
  let reply =
    if D.req o "ok" D.bool then
      let id = D.req o "id" D.str in
      let op = D.req o "op" D.str in
      let payload = D.req o "payload" D.any in
      let wall_ms = D.req o "wall_ms" D.number in
      Ok_reply { v; id; op; payload; wall_ms }
    else
      let id = D.req o "id" (D.nullable D.str) in
      let code, message =
        D.req o "error"
          (D.obj (fun e ->
               let code = D.req e "code" error_code in
               let message = D.req e "message" D.str in
               D.close e;
               (code, message)))
      in
      Error_reply { v; id; code; message }
  in
  D.close o;
  reply

let reply_of_json = D.run (D.obj read_reply)

(* ---------------------------------------------------------- framing *)

let to_line = Json.to_line

let parse_line line =
  match Json.parse line with
  | Error msg ->
      Error { v = version; id = None; code = Parse_error; message = msg }
  | Ok json -> request_of_json json

let write_frame oc body =
  let n = String.length body in
  if n > max_frame then
    invalid_arg (Printf.sprintf "Protocol.write_frame: %d bytes > max_frame" n);
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 (Int32.of_int n);
  output_bytes oc header;
  output_string oc body;
  flush oc

let read_frame ic =
  match really_input_string ic 4 with
  | exception End_of_file -> Ok None
  | header -> (
      let n = Int32.to_int (String.get_int32_be header 0) in
      if n < 0 || n > max_frame then
        Error (Printf.sprintf "declared frame length %d exceeds max_frame %d" n max_frame)
      else
        match really_input_string ic n with
        | exception End_of_file -> Error "EOF inside a frame body"
        | body -> Ok (Some body))
