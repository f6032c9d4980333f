(* SplitMix64 (Steele, Lea, Flood 2014): state advances by a fixed odd
   gamma; output is a bijective finalizer of the state. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed = { state = mix (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t = { state = bits64 t }

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling over the low 62 bits avoids modulo bias. *)
  let mask = 0x3FFF_FFFF_FFFF_FFFF in
  let rec draw () =
    let r = Int64.to_int (bits64 t) land mask in
    let v = r mod bound in
    if r - v > mask - bound + 1 then draw () else v
  in
  draw ()

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (r /. 9007199254740992.0 (* 2^53 *))

let exponential t ~mean =
  let u = float t 1.0 in
  (* Guard against log 0. *)
  let u = if u <= 0.0 then epsilon_float else u in
  -.mean *. log u

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a

let derangement t n =
  if n < 2 then invalid_arg "Prng.derangement: need n >= 2";
  let rec try_once () =
    let a = permutation t n in
    let rec fixed i = i < n && (a.(i) = i || fixed (i + 1)) in
    if fixed 0 then try_once () else a
  in
  try_once ()

(* FNV-1a over the bytes. Unlike [Hashtbl.hash] this is a documented
   function of the string contents alone, so seeds derived from names
   stay stable across OCaml releases. *)
let seed_of_string s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
    s;
  Int64.to_int !h land max_int
