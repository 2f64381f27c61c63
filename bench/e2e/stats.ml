let sorted_array name xs =
  if xs = [] then invalid_arg (name ^ ": empty sample");
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted_array "Stats.median" xs in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* statistics.quantiles(data, n=4, method='exclusive'), integer for
   integer: m = n + 1, j = i m / 4 clamped to [1, n - 1], and the
   interpolation weight delta = i m - 4 j may be negative (n = 2). *)
let quartiles xs =
  let a = sorted_array "Stats.quartiles" xs in
  let n = Array.length a in
  if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (4 * j) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, median xs, q 3)

let nearest_rank p xs =
  let a = sorted_array "Stats.nearest_rank" xs in
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  a.(max 1 (min n rank) - 1)

type direction = Lower | Higher

let direction_of_string = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | _ -> None

type verdict = Improved | Unchanged | Worse | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

type comparison = { verdict : verdict; wins : int; pairs : int }

let compare_samples dir ~bound ?(floor = 0.0) a b =
  if a = [] || b = [] then invalid_arg "Stats.compare_samples: empty sample";
  let better x y = match dir with Lower -> x < y | Higher -> x > y in
  let pairs = min (List.length a) (List.length b) in
  let take xs = List.filteri (fun i _ -> i < pairs) xs in
  let wins =
    List.combine (take a) (take b)
    |> List.filter (fun (x, y) -> better y x)
    |> List.length
  in
  let qa1, ma, qa3 = quartiles a and qb1, mb, qb3 = quartiles b in
  (* changes and spreads are compared in the metric's unit: [bound] as a
     share of the median, never below [floor] *)
  let limit m = Float.max (bound *. m) floor in
  let worsening = match dir with Lower -> mb -. ma | Higher -> ma -. mb in
  let wide = qa3 -. qa1 > limit ma || qb3 -. qb1 > limit mb in
  let every_b_better =
    List.for_all (fun y -> List.for_all (fun x -> better y x) a) b
  in
  let verdict =
    if
      10 * wins >= 9 * pairs
      && better mb ma
      && Float.abs (mb -. ma) > Float.max (qa3 -. qa1) floor
    then Improved
    else if worsening > limit ma then Worse
    else if wide && not every_b_better then Unresolved
    else Unchanged
  in
  { verdict; wins; pairs }
