(* The four state words s0..s3 live little-endian at byte offsets 0, 8, 16
   and 24 of one 32-byte buffer. A record of mutable [int64] fields would
   keep each word in its own heap block and allocate on every store; here
   a step loads the words into unboxed locals, mixes them and stores them
   back, and only a caller that keeps the raw [int64] (see [next]) pays
   for a box. *)
type t = Bytes.t

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] store t s0 s1 s2 s3 =
  Bytes.set_int64_le t 0 s0;
  Bytes.set_int64_le t 8 s1;
  Bytes.set_int64_le t 16 s2;
  Bytes.set_int64_le t 24 s3

let make s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  store t s0 s1 s2 s3;
  t

let create seed =
  let sm = Splitmix64.create seed in
  (* The first SplitMix64 output seeds s3 and the last seeds s0. This is
     the order the generator has always used (every recorded table depends
     on it), so it is spelled out rather than left to evaluation order. *)
  let s3 = Splitmix64.next sm in
  let s2 = Splitmix64.next sm in
  let s1 = Splitmix64.next sm in
  let s0 = Splitmix64.next sm in
  make s0 s1 s2 s3

let of_state (s0, s1, s2, s3) =
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then
    invalid_arg "Xoshiro256.of_state: all-zero state is forbidden";
  make s0 s1 s2 s3

let copy = Bytes.copy

(* One xoshiro256++ step is [output] (from the current state) followed by
   [advance]. Both are inlined into each caller, so the output stays
   unboxed unless the caller itself returns it as an [int64]. *)
let[@inline] output t =
  let s0 = Bytes.get_int64_le t 0 in
  Int64.add (rotl (Int64.add s0 (Bytes.get_int64_le t 24)) 23) s0

let[@inline] advance t =
  let s0 = Bytes.get_int64_le t 0
  and s1 = Bytes.get_int64_le t 8
  and s2 = Bytes.get_int64_le t 16
  and s3 = Bytes.get_int64_le t 24 in
  let tmp = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  let s2 = Int64.logxor s2 tmp in
  store t s0 s1 s2 (rotl s3 45)

let next t =
  let result = output t in
  advance t;
  result

let next_float t =
  let result = output t in
  advance t;
  Int64.to_float (Int64.shift_right_logical result 11) *. 0x1.0p-53

(* Jump polynomial coefficients from the reference implementation. *)
let jump_constants = [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL; 0xA9582618E03FC9AAL; 0x39ABDC4529B1661CL |]

let jump t =
  let acc = Bytes.make 32 '\000' in
  for k = 0 to Array.length jump_constants - 1 do
    let c = jump_constants.(k) in
    for b = 0 to 63 do
      if not (Int64.equal (Int64.logand c (Int64.shift_left 1L b)) 0L) then
        for i = 0 to 3 do
          let off = 8 * i in
          Bytes.set_int64_le acc off
            (Int64.logxor (Bytes.get_int64_le acc off) (Bytes.get_int64_le t off))
        done;
      advance t
    done
  done;
  Bytes.blit acc 0 t 0 32
