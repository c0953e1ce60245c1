module Rng = Lopc_prng.Rng

type t =
  | Constant of float
  | Exponential of float
  | Uniform of float * float
  | Erlang of int * float
  | Hyperexponential of float * float * float
  | Shifted_exponential of float * float
  | Empirical of float array

(* [None] for valid parameters, so the check on every [sample] allocates
   nothing; the message is formatted only on failure. *)
let invalid_reason t =
  let err fmt = Format.kasprintf Option.some fmt in
  match t with
  | Constant c -> if c >= 0. then None else err "Constant: negative value %g" c
  | Exponential m -> if m >= 0. then None else err "Exponential: negative mean %g" m
  | Uniform (lo, hi) ->
    if 0. <= lo && lo <= hi then None else err "Uniform: invalid bounds [%g, %g]" lo hi
  | Erlang (k, m) ->
    if k >= 1 && m >= 0. then None
    else err "Erlang: need k >= 1 and mean >= 0, got k=%d mean=%g" k m
  | Hyperexponential (p, m1, m2) ->
    if 0. <= p && p <= 1. && m1 >= 0. && m2 >= 0. then None
    else err "Hyperexponential: invalid (p=%g, mean1=%g, mean2=%g)" p m1 m2
  | Shifted_exponential (offset, m) ->
    if 0. <= offset && offset <= m then None
    else err "Shifted_exponential: need 0 <= offset <= mean, got offset=%g mean=%g" offset m
  | Empirical samples ->
    if Array.length samples = 0 then err "Empirical: empty sample array"
    else if Array.exists (fun x -> x < 0. || not (Float.is_finite x)) samples then
      err "Empirical: samples must be finite and non-negative"
    else None

let validate t = match invalid_reason t with None -> Ok t | Some reason -> Error reason

let check t =
  match invalid_reason t with
  | None -> t
  | Some reason -> invalid_arg ("Distribution: " ^ reason)

let empirical_mean samples =
  Array.fold_left ( +. ) 0. samples /. Float.of_int (Array.length samples)

(* Exact-zero test for degenerate-case dispatch: sampling and moment guards
   must only special-case true zeros; tiny positive means are legitimate
   scales and take the general path. *)
let exactly_zero x = Float.classify_float x = FP_zero

(* Below this magnitude mu*.mu underflows, so scv's division is meaningless. *)
let tiny_mean = Float.sqrt Float.min_float

let mean = function
  | Constant c -> c
  | Exponential m -> m
  | Uniform (lo, hi) -> (lo +. hi) /. 2.
  | Erlang (_, m) -> m
  | Hyperexponential (p, m1, m2) -> (p *. m1) +. ((1. -. p) *. m2)
  | Shifted_exponential (_, m) -> m
  | Empirical samples -> empirical_mean samples

let variance = function
  | Constant _ -> 0.
  | Exponential m -> m *. m
  | Uniform (lo, hi) ->
    let w = hi -. lo in
    w *. w /. 12.
  | Erlang (k, m) -> m *. m /. Float.of_int k
  | Hyperexponential (p, m1, m2) ->
    (* E[X²] of a mixture of exponentials: sum p_i · 2·m_i². *)
    let second = (p *. 2. *. m1 *. m1) +. ((1. -. p) *. 2. *. m2 *. m2) in
    let mu = (p *. m1) +. ((1. -. p) *. m2) in
    second -. (mu *. mu)
  | Shifted_exponential (offset, m) ->
    let tail = m -. offset in
    tail *. tail
  | Empirical samples ->
    let mu = empirical_mean samples in
    Array.fold_left (fun acc x -> acc +. ((x -. mu) ** 2.)) 0. samples
    /. Float.of_int (Array.length samples)

let scv t =
  let mu = mean t in
  if Float.abs mu < tiny_mean then 0. else variance t /. (mu *. mu)

let residual_mean t = (1. +. scv t) /. 2. *. mean t

let sample t rng =
  match check t with
  | Constant c -> c
  | Exponential m -> if exactly_zero m then 0. else Rng.exponential rng m
  | Uniform (lo, hi) -> if Float.equal lo hi then lo else Rng.float_range rng lo hi
  | Erlang (k, m) ->
    if exactly_zero m then 0.
    else begin
      let phase_mean = m /. Float.of_int k in
      let acc = ref 0. in
      for _ = 1 to k do
        acc := !acc +. Rng.exponential rng phase_mean
      done;
      !acc
    end
  | Hyperexponential (p, m1, m2) ->
    let m = if Rng.bernoulli rng p then m1 else m2 in
    if exactly_zero m then 0. else Rng.exponential rng m
  | Shifted_exponential (offset, m) ->
    let tail = m -. offset in
    offset +. (if exactly_zero tail then 0. else Rng.exponential rng tail)
  | Empirical samples -> samples.(Rng.int_below rng (Array.length samples))

let of_mean_scv ~mean:m ~scv:c2 =
  if m < 0. then invalid_arg "Distribution.of_mean_scv: negative mean";
  if c2 < 0. then invalid_arg "Distribution.of_mean_scv: negative scv";
  if exactly_zero m || exactly_zero c2 then Constant m
  else if c2 < 1. then
    (* Shifted exponential: C² = (1 − offset/mean)², so
       offset = mean·(1 − sqrt C²). *)
    Shifted_exponential (m *. (1. -. sqrt c2), m)
  else if exactly_zero (c2 -. 1.) then Exponential m
  else begin
    (* Balanced-means two-phase hyperexponential (Allen 1990):
       p = (1 + sqrt((C²−1)/(C²+1))) / 2, branch means chosen so each
       branch contributes half the total mean. *)
    let p = (1. +. sqrt ((c2 -. 1.) /. (c2 +. 1.))) /. 2. in
    let m1 = m /. (2. *. p)
    and m2 =
      (m
      /. (2. *. (1. -. p))
      [@lint.allow
        "division-by-vanishing"
          "this branch has finite c2 > 1, so sqrt((c2-1)/(c2+1)) < 1 strictly and \
           p < 1, keeping 1 - p positive"])
    in
    Hyperexponential (p, m1, m2)
  end

let pp ppf = function
  | Constant c -> Format.fprintf ppf "Const(%g)" c
  | Exponential m -> Format.fprintf ppf "Exp(mean=%g)" m
  | Uniform (lo, hi) -> Format.fprintf ppf "Uniform[%g, %g]" lo hi
  | Erlang (k, m) -> Format.fprintf ppf "Erlang(k=%d, mean=%g)" k m
  | Hyperexponential (p, m1, m2) -> Format.fprintf ppf "Hyperexp(p=%g, %g, %g)" p m1 m2
  | Shifted_exponential (offset, m) -> Format.fprintf ppf "ShiftedExp(offset=%g, mean=%g)" offset m
  | Empirical samples -> Format.fprintf ppf "Empirical(n=%d, mean=%g)" (Array.length samples) (empirical_mean samples)

let to_string t = Format.asprintf "%a" pp t
