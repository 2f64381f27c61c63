(* Process-level sharding: deterministic partition of a work list into
   N shards, shard provenance for the JSON envelopes, and the merge that
   recombines a complete shard set into the document an unsharded run
   would have produced.

   The partition is round-robin by position (item j goes to shard
   j mod N), a pure function of the list — never of domain count, wall
   clock, or environment — so each shard's output is byte-stable and
   the shards of a list are always a partition of it.

   Merging validates before it combines: every input must carry a
   [shard] envelope field, agree on kind / schema version / seed /
   quick, and the shard set must be exactly {0/N .. (N-1)/N} with
   payload entries disjoint across shards.  On success the [shard]
   field is dropped and the payload is reassembled in canonical order
   (catalogue order for experiments, ascending [k] for audit rows),
   which makes the merged bytes identical to an unsharded run. *)

type spec = { index : int; count : int }

let spec_format =
  "expected I/N with integers 0 <= I < N (shard I of N shards, e.g. 0/3)"

let parse_spec s =
  let malformed () =
    Error (Printf.sprintf "malformed shard spec %S: %s" s spec_format)
  in
  match String.index_opt s '/' with
  | None -> malformed ()
  | Some cut -> (
      let index_txt = String.sub s 0 cut in
      let count_txt = String.sub s (cut + 1) (String.length s - cut - 1) in
      match (int_of_string_opt index_txt, int_of_string_opt count_txt) with
      | Some index, Some count ->
          if count < 1 then
            Error
              (Printf.sprintf "invalid shard count in %S: N must be >= 1 (%s)"
                 s spec_format)
          else if index < 0 || index >= count then
            Error
              (Printf.sprintf
                 "shard index out of range in %S: need 0 <= I < %d (%s)" s
                 count spec_format)
          else Ok { index; count }
      | _ -> malformed ())

let to_string { index; count } = Printf.sprintf "%d/%d" index count
let keeps { index; count } position = position mod count = index
let assign spec items = List.filteri (fun position _ -> keeps spec position) items

let json_field { index; count } =
  ("shard", Json.Obj [ ("index", Json.Int index); ("of", Json.Int count) ])

(* ------------------------------------------------------------- merge *)

module D = Json.Decode

let fail fmt = Printf.ksprintf (fun s -> raise (D.Error s)) fmt

type envelope = {
  label : string;
  kind : string;
  version : int;
  seed : int;
  quick : bool;
  shard : spec;
  entries : (D.path * Json.t) list;  (* the payload list, each at its path *)
}

(* The schema versions this tool knows how to reassemble; a shard
   recorded by a newer emitter must not be silently merged into an
   older-shaped document. *)
let mergeable_versions =
  [ ("oqsc-experiments", 2); ("oqsc-space-audit", 1) ]

let shard_field path json =
  let index, count =
    D.obj
      (fun o ->
        let index = D.req o "index" D.int in
        let count = D.req o "of" D.int in
        D.close o;
        (index, count))
      path json
  in
  if count < 1 || index < 0 || index >= count then
    D.fail path "invalid shard provenance %d/%d" index count;
  { index; count }

let envelope label o =
  let kind = D.req o "kind" D.str in
  let version = D.req o "version" D.int in
  (match List.assoc_opt kind mergeable_versions with
  | None ->
      D.fail o.D.at "unsupported document kind %S (mergeable kinds: %s)" kind
        (String.concat ", " (List.map fst mergeable_versions))
  | Some expected ->
      if version <> expected then
        D.fail o.D.at
          "version skew: %s document is version %d, this tool merges version %d"
          kind version expected);
  let shard =
    match D.opt o "shard" shard_field with
    | Some shard -> shard
    | None ->
        D.fail o.D.at "not a shard document (missing the \"shard\" envelope field)"
  in
  let seed = D.req o "seed" D.int in
  let quick = D.req o "quick" D.bool in
  let payload = if kind = "oqsc-space-audit" then "rows" else "experiments" in
  let entries = D.req o payload (D.list (fun path x -> (path, x))) in
  (* An audit shard written with --timing carries its rows' wall-clock
     sum; the merge recomputes it. *)
  ignore (D.opt o "wall_ms" D.number);
  D.close o;
  { label; kind; version; seed; quick; shard; entries }

let validate_envelopes first rest =
  List.iter
    (fun e ->
      if e.kind <> first.kind then
        fail "envelope mismatch: %s is kind %S but %s is kind %S" first.label
          first.kind e.label e.kind;
      if e.seed <> first.seed then
        fail "envelope mismatch: %s has seed %d but %s has seed %d" first.label
          first.seed e.label e.seed;
      if e.quick <> first.quick then
        fail "envelope mismatch: %s has quick %b but %s has quick %b"
          first.label first.quick e.label e.quick;
      if e.shard.count <> first.shard.count then
        fail "shard count mismatch: %s is of %d shards but %s is of %d"
          first.label first.shard.count e.label e.shard.count)
    rest;
  let count = first.shard.count in
  let seen = Array.make count None in
  List.iter
    (fun e ->
      match seen.(e.shard.index) with
      | Some other ->
          fail "duplicate shard %s: %s and %s" (to_string e.shard) other
            e.label
      | None -> seen.(e.shard.index) <- Some e.label)
    (first :: rest);
  let missing = ref [] in
  Array.iteri
    (fun i claimed ->
      if claimed = None then missing := string_of_int i :: !missing)
    seen;
  if !missing <> [] then
    fail "incomplete shard set: missing shard(s) %s of %d"
      (String.concat ", " (List.rev !missing))
      count

(* -------------------------------------------- per-kind payload merge *)

let catalogue_position path id =
  let rec go i = function
    | [] ->
        D.fail path "unknown experiment id %S; valid ids: %s" id
          (String.concat ", " Registry.ids)
    | id' :: rest -> if String.equal id id' then i else go (i + 1) rest
  in
  go 0 Registry.ids

let sort_disjoint ~what entries =
  (* [entries] are [(position, name, label, payload)]; positions must be
     unique across shards, and the stable sort lets the adjacency scan
     name both offending documents. *)
  let sorted =
    List.sort (fun (a, _, _, _) (b, _, _, _) -> compare (a : int) b) entries
  in
  let rec scan = function
    | (p, name, la, _) :: ((q, _, lb, _) :: _ as rest) ->
        if p = q then
          fail "overlapping shards: %s %s appears in both %s and %s" what name
            la lb;
        scan rest
    | _ -> ()
  in
  scan sorted;
  List.map (fun (_, _, _, payload) -> payload) sorted

let merge_experiments envelopes =
  let entries =
    List.concat_map
      (fun e ->
        List.map
          (fun (path, x) ->
            let id = D.obj (fun o -> D.req o "id" D.str) path x in
            (catalogue_position path id, id, e.label, x))
          e.entries)
      envelopes
  in
  Json.List (sort_disjoint ~what:"experiment" entries)

let audit_row =
  D.obj (fun o ->
      let int name = D.req o name D.int in
      let opt_int name = D.req o name (D.nullable D.int) in
      let wall = D.opt o "wall_ms" D.number in
      let row =
        {
          Space_audit.k = int "k";
          n = int "n";
          classical_storage_bits = int "classical_storage_bits";
          classical_total_bits = int "classical_total_bits";
          quantum_total_bits = opt_int "quantum_total_bits";
          quantum_qubits = opt_int "quantum_qubits";
          wall_ms = Option.value wall ~default:0.0;
        }
      in
      D.close o;
      (row, wall <> None))

let merge_audit envelopes first =
  let entries =
    List.concat_map
      (fun e ->
        List.map
          (fun (path, x) ->
            let row, timed = audit_row path x in
            (row.Space_audit.k, row, e.label, timed))
          e.entries)
      envelopes
  in
  (match entries with [] -> fail "no audit rows to merge" | _ -> ());
  let timing = List.for_all (fun (_, _, _, t) -> t) entries in
  if (not timing) && List.exists (fun (_, _, _, t) -> t) entries then
    fail "inconsistent timing telemetry: some rows carry wall_ms, some do not";
  let rows =
    sort_disjoint ~what:"audit row k ="
      (List.map (fun (k, row, label, _) -> (k, string_of_int k, label, row)) entries)
  in
  (* Fit and verdict are recomputed over the full row set — they are a
     pure function of the (integer) row data, so the merged document is
     byte-identical to an unsharded audit. *)
  Space_audit.to_json ~timing ~seed:first.seed ~quick:first.quick
    (Space_audit.of_rows rows)

let merge docs =
  match docs with
  | [] -> Error "no input documents"
  | _ -> (
      try
        let envelopes =
          List.map
            (fun (label, doc) -> D.obj (envelope label) (D.Root label) doc)
            docs
        in
        let first = List.hd envelopes in
        validate_envelopes first (List.tl envelopes);
        match first.kind with
        | "oqsc-space-audit" -> Ok (merge_audit envelopes first)
        | _ ->
            (* [envelope] rejected every kind but these two. *)
            Ok
              (Json.Obj
                 [
                   ("kind", Json.Str first.kind);
                   ("version", Json.Int first.version);
                   ("seed", Json.Int first.seed);
                   ("quick", Json.Bool first.quick);
                   ("experiments", merge_experiments envelopes);
                 ])
      with D.Error msg -> Error msg)
