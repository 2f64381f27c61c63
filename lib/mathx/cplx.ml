type t = { re : float; im : float }

let zero = { re = 0.0; im = 0.0 }
let one = { re = 1.0; im = 0.0 }
let i = { re = 0.0; im = 1.0 }
let make re im = { re; im }
let re x = { re = x; im = 0.0 }
let add a b = { re = a.re +. b.re; im = a.im +. b.im }
let sub a b = { re = a.re -. b.re; im = a.im -. b.im }

let mul a b =
  { re = (a.re *. b.re) -. (a.im *. b.im); im = (a.re *. b.im) +. (a.im *. b.re) }

let conj a = { re = a.re; im = -.a.im }
let scale s a = { re = s *. a.re; im = s *. a.im }
let norm2 a = (a.re *. a.re) +. (a.im *. a.im)
let abs a = sqrt (norm2 a)
let polar r theta = { re = r *. cos theta; im = r *. sin theta }

let approx_equal ?(eps = 1e-9) a b =
  Float.abs (a.re -. b.re) <= eps && Float.abs (a.im -. b.im) <= eps

let pp fmt a = Format.fprintf fmt "%g%+gi" a.re a.im
