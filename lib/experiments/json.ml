(* Minimal self-contained JSON for the experiment/bench result pipeline.

   Four pieces, no external dependency:

   - a stable emitter, pretty ([to_string]) or one-line ([to_line]):
     object keys are sorted and floats use one fixed format, so two
     equal documents are byte-identical — the property the
     seed-determinism contract of `run-all --json` rests on;
   - a parser (strict enough for documents this module emits, plus
     ordinary hand-edited baselines);
   - [Decode], the strict typed reader every consumer of a parsed
     document uses;
   - a structural diff with a relative tolerance on numeric leaves,
     which is what `--check BASELINE.json --tolerance PCT` runs.

   Keys listed in [default_ignored] (wall-clock telemetry) are excluded
   from the diff on either side, so a baseline recorded with `--timing`
   still checks cleanly against a run without it. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------- emit *)

let float_repr = Obs.Metrics.float_repr

let add_escaped buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* The one walker behind both renderings.  [pretty] puts each array
   element and object member on its own line, indented two spaces per
   level, and a space after each ':'; the compact form has no
   whitespace at all.  Values, key order and escapes are the same, so a
   compact line parses back to a value that pretty-prints to the same
   bytes. *)
let emit ~pretty buf v =
  let newline indent =
    if pretty then begin
      Buffer.add_char buf '\n';
      for _ = 1 to indent do
        Buffer.add_char buf ' '
      done
    end
  in
  let rec go indent = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
        if Float.is_finite f then Buffer.add_string buf (float_repr f)
        else Buffer.add_string buf "null"
    | Str s ->
        Buffer.add_char buf '"';
        add_escaped buf s;
        Buffer.add_char buf '"'
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            newline (indent + 2);
            go (indent + 2) item)
          items;
        newline indent;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        let fields =
          List.sort (fun (a, _) (b, _) -> String.compare a b) fields
        in
        Buffer.add_char buf '{';
        List.iteri
          (fun i (key, value) ->
            if i > 0 then Buffer.add_char buf ',';
            newline (indent + 2);
            Buffer.add_char buf '"';
            add_escaped buf key;
            Buffer.add_string buf (if pretty then "\": " else "\":");
            go (indent + 2) value)
          fields;
        newline indent;
        Buffer.add_char buf '}'
  in
  go 0 v

(* The pretty form every gated document is written in, with a trailing
   newline. *)
let to_string v =
  let buf = Buffer.create 4096 in
  emit ~pretty:true buf v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* The compact single-line form (no trailing newline) the serve
   transports frame.  The small initial buffer keeps a typical reply
   out of the major heap. *)
let to_line v =
  let buf = Buffer.create 256 in
  emit ~pretty:false buf v;
  Buffer.contents buf

(* ------------------------------------------------------------ parse *)

exception Parse_error of string

(* Deepest nesting of arrays and objects [parse] accepts.  Emitted and
   committed documents nest fewer than 10 levels; the bound keeps the
   recursive descent's stack (which every minor collection scans) short
   on untrusted input such as a serve request line. *)
let max_depth = 512

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents buf
      else if c = '\\' then begin
        (if !pos >= n then fail "unterminated escape";
         let e = s.[!pos] in
         advance ();
         match e with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'u' ->
             if !pos + 4 > n then fail "truncated \\u escape";
             (* Exactly four hex digits: no sign, prefix or '_'. *)
             let digit i =
               match s.[!pos + i] with
               | '0' .. '9' as d -> Char.code d - Char.code '0'
               | 'a' .. 'f' as d -> Char.code d - Char.code 'a' + 10
               | 'A' .. 'F' as d -> Char.code d - Char.code 'A' + 10
               | _ -> fail "invalid \\u escape"
             in
             let code =
               (digit 0 lsl 12) lor (digit 1 lsl 8) lor (digit 2 lsl 4)
               lor digit 3
             in
             pos := !pos + 4;
             (* Code points below 0x80 decode directly; the emitter only
                produces those.  Anything wider becomes UTF-8. *)
             if code < 0x80 then Buffer.add_char buf (Char.chr code)
             else if code < 0x800 then begin
               Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
               Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
             end
             else begin
               Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
               Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
               Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
             end
         | _ -> fail "invalid escape");
        loop ()
      end
      else begin
        Buffer.add_char buf c;
        loop ()
      end
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let is_float = ref false in
    let rec scan () =
      match peek () with
      | Some ('0' .. '9') ->
          advance ();
          scan ()
      | Some ('.' | 'e' | 'E' | '+' | '-') ->
          is_float := true;
          advance ();
          scan ()
      | _ -> ()
    in
    scan ();
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "invalid number %S" text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> fail (Printf.sprintf "invalid number %S" text))
  in
  let open_container depth =
    if depth >= max_depth then
      fail (Printf.sprintf "nesting deeper than %d levels" max_depth);
    advance ()
  in
  (* [depth] counts the arrays and objects enclosing the value. *)
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        open_container depth;
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let value = parse_value (depth + 1) in
            fields := (key, value) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        open_container depth;
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let value = parse_value (depth + 1) in
            items := value :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          elements ();
          List (List.rev !items)
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  try
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing garbage at offset %d" !pos)
    else Ok v
  with Parse_error msg -> Error msg

(* ------------------------------------------------------------- diff *)

let default_ignored = [ "wall_ms" ]

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Int _ | Float _ -> "number"
  | Str _ -> "string"
  | List _ -> "array"
  | Obj _ -> "object"

(* Relative drift in percent between a baseline and a current numeric
   leaf; equal values (including two NaN/infinite floats) drift 0%. *)
let drift_pct a b =
  if a = b then 0.0
  else if not (Float.is_finite a && Float.is_finite b) then Float.infinity
  else
    100.0 *. Float.abs (a -. b)
    /. Float.max 1e-12 (Float.max (Float.abs a) (Float.abs b))

let diff ?(tolerance = 0.0) ?(ignored = default_ignored) baseline current =
  let drifts = ref [] in
  let report path msg = drifts := Printf.sprintf "%s: %s" path msg :: !drifts in
  (* Numbers compare as they serialize: a freshly computed float and the
     same value parsed back from its 12-significant-digit document form
     must drift 0%, so a run gates against its own baseline at
     --tolerance 0. *)
  let canonical f = if Float.is_finite f then float_of_string (float_repr f) else f in
  let number = function
    | Int i -> Some (float_of_int i)
    | Float f -> Some (canonical f)
    | _ -> None
  in
  let rec walk path a b =
    match (number a, number b) with
    | Some na, Some nb ->
        let d = drift_pct na nb in
        if d > tolerance then
          report path
            (Printf.sprintf "%s -> %s (drift %.3g%% > tolerance %g%%)"
               (float_repr na) (float_repr nb) d tolerance)
    | _ -> (
        match (a, b) with
        | Null, Null -> ()
        | Bool x, Bool y -> if x <> y then report path (Printf.sprintf "%b -> %b" x y)
        | Str x, Str y ->
            if not (String.equal x y) then
              report path (Printf.sprintf "%S -> %S" x y)
        | List xs, List ys ->
            if List.length xs <> List.length ys then
              report path
                (Printf.sprintf "array length %d -> %d" (List.length xs)
                   (List.length ys))
            else
              List.iteri
                (fun i (x, y) -> walk (Printf.sprintf "%s[%d]" path i) x y)
                (List.combine xs ys)
        | Obj xs, Obj ys ->
            let keys fields =
              List.filter
                (fun k -> not (List.mem k ignored))
                (List.map fst fields)
              |> List.sort_uniq String.compare
            in
            let all = List.sort_uniq String.compare (keys xs @ keys ys) in
            List.iter
              (fun k ->
                let sub = if path = "" then k else path ^ "." ^ k in
                match (List.assoc_opt k xs, List.assoc_opt k ys) with
                | Some x, Some y -> walk sub x y
                | Some _, None -> report sub "missing in current"
                | None, Some _ -> report sub "missing in baseline"
                | None, None -> ())
              all
        | _ ->
            report path
              (Printf.sprintf "type %s -> %s" (type_name a) (type_name b)))
  in
  walk "" baseline current;
  List.rev !drifts

(* ----------------------------------------------------------- decode *)

(* The one strict decoder every reader of these documents uses.  A
   converter ['a conv] turns the value found at a [path] into an ['a],
   or raises [Error] with a message that names that path (and the
   caller's document label, when [run] was given one).  Objects are
   read through a cursor that hands out each key once, in a single
   pass; [close] then rejects whatever the reader did not ask for. *)
module Decode = struct
  exception Error of string

  type path = Root of string | Key of path * string | Index of path * int
  type 'a conv = path -> t -> 'a

  (* Built only on failure, so a successful decode never formats one. *)
  let rec render = function
    | Root _ -> ""
    | Key (Root _, k) -> k
    | Key (p, k) -> render p ^ "." ^ k
    | Index (p, i) -> Printf.sprintf "%s[%d]" (render p) i

  let rec label = function Root l -> l | Key (p, _) | Index (p, _) -> label p

  let fail path fmt =
    Printf.ksprintf
      (fun msg ->
        let where = List.filter (( <> ) "") [ label path; render path ] in
        raise (Error (String.concat ": " (where @ [ msg ]))))
      fmt

  let run ?(label = "") conv v =
    match conv (Root label) v with x -> Ok x | exception Error msg -> Error msg

  let mismatch path want v = fail path "expected %s, got %s" want (type_name v)
  let int path = function Int i -> i | v -> mismatch path "an int" v
  let str path = function Str s -> s | v -> mismatch path "a string" v
  let bool path = function Bool b -> b | v -> mismatch path "a bool" v

  let number path = function
    | Int i -> float_of_int i
    | Float f -> f
    | v -> mismatch path "a number" v

  let any _ v = v
  let nullable conv path = function Null -> None | v -> Some (conv path v)

  let list conv path = function
    | List items -> List.mapi (fun i x -> conv (Index (path, i)) x) items
    | v -> mismatch path "an array" v

  type obj = { at : path; mutable rest : (string * t) list }

  let obj read path = function
    | Obj members -> read { at = path; rest = members }
    | v -> mismatch path "an object" v

  let rec has_key key = function
    | [] -> false
    | (k, _) :: rest -> String.equal k key || has_key key rest

  (* One walk: the key's first member is removed from the cursor, and a
     second member under the same key is an error, not a tie-break. *)
  let rec take o key acc = function
    | [] -> None
    | (k, v) :: rest when String.equal k key ->
        if has_key key rest then fail (Key (o.at, key)) "duplicate key";
        o.rest <- List.rev_append acc rest;
        Some v
    | kv :: rest -> take o key (kv :: acc) rest

  let opt o key conv =
    match take o key [] o.rest with
    | None -> None
    | Some v -> Some (conv (Key (o.at, key)) v)

  let req o key conv =
    match take o key [] o.rest with
    | None -> fail (Key (o.at, key)) "missing"
    | Some v -> conv (Key (o.at, key)) v

  let close o =
    match o.rest with
    | [] -> ()
    | rest ->
        fail o.at "unknown key%s %s"
          (if List.length rest > 1 then "s" else "")
          (String.concat ", " (List.map (fun (k, _) -> Printf.sprintf "%S" k) rest))
end

(* ------------------------------------- experiment result conversion *)

let of_cell = function
  | Report.Null -> Null
  | Report.Bool b -> Bool b
  | Report.Int i -> Int i
  | Report.Float { value; _ } -> Float value
  | Report.Str s -> Str s

let of_table (tb : Report.table) =
  Obj
    [
      ("title", Str tb.Report.title);
      ("header", List (List.map (fun h -> Str h) tb.Report.header));
      ( "rows",
        List (List.map (fun row -> List (List.map of_cell row)) tb.Report.rows)
      );
    ]

let of_result ?(timing = false) (r : Report.t) =
  let base =
    [
      ("id", Str r.Report.id);
      ("description", Str r.Report.description);
      ( "metrics",
        Obj (List.map (fun (k, v) -> (k, Float v)) r.Report.body.Report.metrics)
      );
      ("notes", List (List.map (fun s -> Str s) r.Report.body.Report.notes));
      ( "resources",
        Obj (List.map (fun (k, v) -> (k, Int v)) r.Report.resources) );
      ("tables", List (List.map of_table r.Report.body.Report.tables));
    ]
  in
  Obj (if timing then ("wall_ms", Float r.Report.wall_ms) :: base else base)

(* Schema history (see docs/SCHEMA.md for the full specification):
   - version 1: id/description/metrics/notes/tables per experiment.
   - version 2: adds the per-experiment "resources" object (Obs counter
     snapshot).  Version-1 baselines fail --check on both the version
     bump and the missing "resources" keys; re-record them with
     `run-all --json` to migrate.
   - a version-2 baseline written by the removed `run-all --shard`
     carries a top-level "shard" object, which --check reports as
     drift against any current run. *)
let of_results ?timing ~seed ~quick results =
  Obj
    [
      ("kind", Str "oqsc-experiments");
      ("version", Int 2);
      ("seed", Int seed);
      ("quick", Bool quick);
      ("experiments", List (List.map (of_result ?timing) results));
    ]
