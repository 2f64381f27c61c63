let mean a =
  if Array.length a = 0 then invalid_arg "Cstats.mean: empty array";
  Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let variance a =
  let n = Array.length a in
  if n < 2 then 0.0
  else begin
    let m = mean a in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 a in
    acc /. float_of_int (n - 1)
  end

let min_max a =
  if Array.length a = 0 then invalid_arg "Cstats.min_max: empty array";
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (a.(0), a.(0))
    a

let wilson_interval ~successes ~trials ~z =
  if trials <= 0 then invalid_arg "Cstats.wilson_interval: trials must be positive";
  let n = float_of_int trials and p = float_of_int successes /. float_of_int trials in
  let z2 = z *. z in
  let denom = 1.0 +. (z2 /. n) in
  let center = (p +. (z2 /. (2.0 *. n))) /. denom in
  let half =
    z /. denom *. sqrt ((p *. (1.0 -. p) /. n) +. (z2 /. (4.0 *. n *. n)))
  in
  (Float.max 0.0 (center -. half), Float.min 1.0 (center +. half))

let linear_fit points =
  let n = List.length points in
  if n < 2 then invalid_arg "Cstats.linear_fit: need at least two points";
  let nf = float_of_int n in
  let sx = List.fold_left (fun acc (x, _) -> acc +. x) 0.0 points in
  let sy = List.fold_left (fun acc (_, y) -> acc +. y) 0.0 points in
  let sxx = List.fold_left (fun acc (x, _) -> acc +. (x *. x)) 0.0 points in
  let sxy = List.fold_left (fun acc (x, y) -> acc +. (x *. y)) 0.0 points in
  let denom = (nf *. sxx) -. (sx *. sx) in
  if Float.abs denom < 1e-12 then invalid_arg "Cstats.linear_fit: degenerate x values";
  let a = ((nf *. sxy) -. (sx *. sy)) /. denom in
  let b = (sy -. (a *. sx)) /. nf in
  (a, b)

(* Coefficient of determination for y = a*x + b over the same points the
   fit saw.  A flat response (zero total variance) counts as a perfect
   fit when the residuals are zero too, else as worthless. *)
let r_square points (a, b) =
  let ss_res =
    List.fold_left
      (fun acc (x, y) ->
        let e = y -. ((a *. x) +. b) in
        acc +. (e *. e))
      0.0 points
  in
  let ybar =
    List.fold_left (fun acc (_, y) -> acc +. y) 0.0 points
    /. float_of_int (max 1 (List.length points))
  in
  let ss_tot =
    List.fold_left (fun acc (_, y) -> acc +. ((y -. ybar) ** 2.0)) 0.0 points
  in
  if ss_tot < 1e-30 then if ss_res < 1e-30 then 1.0 else 0.0
  else 1.0 -. (ss_res /. ss_tot)

let linear_fit_r2 points =
  let a, b = linear_fit points in
  (a, b, r_square points (a, b))

let logged points =
  List.filter_map
    (fun (x, y) -> if x > 0.0 && y > 0.0 then Some (log x, log y) else None)
    points

let loglog_slope points = linear_fit (logged points)

let loglog_fit_r2 points = linear_fit_r2 (logged points)
