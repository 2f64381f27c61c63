(* Prints "<md5>  <file>" for each argument, as md5sum does. *)
let () =
  for i = 1 to Array.length Sys.argv - 1 do
    let f = Sys.argv.(i) in
    Printf.printf "%s  %s\n" (Digest.to_hex (Digest.file f)) f
  done
