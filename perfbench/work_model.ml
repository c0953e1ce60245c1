(* model-grid: a seeded stream of capacity-planning queries, the
   `lopc_cli predict` path. Each query lowers a pattern with
   Pattern.to_general over P = 2..32 and the parameter ranges of
   EXPERIMENTS.md and solves it with General.solve_status; all-to-all
   queries are also solved with All_to_all.solve_status and client-server
   queries with Client_server.throughput. All host time is in core, mva and
   numerics. *)

module General = Lopc.General
module A = Lopc.All_to_all
module CS = Lopc.Client_server
module Params = Lopc.Params
module Fixed_point = Lopc_numerics.Fixed_point
module Pattern = Lopc_workloads.Pattern
module Rng = Lopc_prng.Rng
open Workload

let queries_of = function Full -> 155 | Tiny -> 24

type query = {
  params : Params.t;
  w : float;
  pattern : Pattern.t;
  general : General.t;  (* the pattern lowered by Pattern.to_general *)
}

type answer = {
  general_out : General.solution option * Fixed_point.status;
  extra :
    [ `All_to_all of A.solution option * Fixed_point.status
    | `Client_server of CS.solution
    | `None ];
}

(* Utilization of each node's handlers at the contention-free cycle time:
   an upper bound on the utilization the model can reach. A query whose
   bound reaches [max_utilization] may be saturated and is not generated. *)
let max_utilization = 0.9

(* What the bound needs from a lowered pattern, which does not depend on
   the parameters: the fewest visits any client makes per cycle, and the
   largest count over nodes of visits received plus cycles run. *)
type shape = { min_hops : float; max_count : float }

let shape (g : General.t) =
  let count = Array.make (Array.length g.General.nodes) 0. in
  let min_hops = ref Float.infinity in
  Array.iteri
    (fun c spec ->
      if Option.is_some spec.General.work then begin
        min_hops := Float.min !min_hops (Array.fold_left ( +. ) 0. spec.General.visits);
        Array.iteri (fun k v -> count.(k) <- count.(k) +. v) spec.General.visits;
        count.(c) <- count.(c) +. 1.
      end)
    g.General.nodes;
  { min_hops = !min_hops; max_count = Array.fold_left Float.max 0. count }

let min_work = 2.
let max_work = 2048.

let handler_wire =
  Array.concat
    (List.map
       (fun so -> Array.map (fun st -> (so, st)) [| 20.; 40.; 80. |])
       [ 128.; 131.; 200.; 256.; 512.; 1024. ])

(* Every client cycles at most once per w + (so + st) (hops + 1), so the
   bound stays below [max_utilization] for every w above this, which has a
   0.1% margin. *)
let lowest_work s ~so ~st =
  Float.max min_work
    (1.001 *. ((so *. s.max_count /. max_utilization) -. ((so +. st) *. (s.min_hops +. 1.))))

(* Query [i] has a fixed machine size and pattern kind, cycling through
   P = 2..32 and the five kinds, so that every seed asks for the same mix
   of work; the seed draws the rest. W is log-uniform over the part of
   [min_work, max_work] that the pattern, So and St leave unsaturated, and
   So and St are drawn in proportion to the log-length of that part: the
   distribution of drawing all three and redrawing saturated points, with
   the same work for every seed. Only a pattern that no So and St leave
   unsaturated is redrawn. *)
let rec query rng i =
  let p = 2 + (i mod 31) in
  let pattern =
    match i mod 5 with
    | 0 | 1 -> Pattern.All_to_all
    | 2 -> Pattern.Client_server { servers = Rng.int_range rng 1 (p - 1) }
    | 3 -> Pattern.Hotspot { hot = Rng.int_below rng p; fraction = Rng.float_range rng 0. 0.5 }
    | _ -> Pattern.Multi_hop { hops = Rng.int_range rng 1 (min 3 (p - 1)) }
  in
  let s = shape (Pattern.to_general (Params.create ~p ~st:1. ~so:1. ()) ~w:1. pattern) in
  let weights =
    Array.map
      (fun (so, st) -> Float.max 0. (Float.log (max_work /. lowest_work s ~so ~st)))
      handler_wire
  in
  if Array.for_all (fun x -> x = 0.) weights then query rng i
  else begin
    let so, st = handler_wire.(Rng.choose_weighted rng weights) in
    let c2 = Rng.choose rng [| 0.; 0.25; 0.5; 1.; 1.5; 2. |] in
    let w =
      Float.exp (Rng.float_range rng (Float.log (lowest_work s ~so ~st)) (Float.log max_work))
    in
    let params = Params.create ~c2 ~p ~st ~so () in
    { params; w; pattern; general = Pattern.to_general params ~w pattern }
  end

let generate rng n = Array.init n (query rng)

let solve_general q = General.solve_status q.general

let solve_extra q =
  match q.pattern with
  | Pattern.All_to_all -> `All_to_all (A.solve_status q.params ~w:q.w)
  | Pattern.Client_server { servers } ->
    `Client_server (CS.throughput q.params ~w:q.w ~servers)
  | Pattern.All_to_all_staggered | Pattern.Hotspot _ | Pattern.Multi_hop _ -> `None

let answer q = { general_out = solve_general q; extra = solve_extra q }

let finite_positive x = Float.is_finite x && x > 0.

(* One check per query. With [perturb] every reference is moved so the
   check must fail: the agreement target is shifted by 0.1%, the Eq 5.12
   interval is replaced by one below the lower bound, and the positive
   range becomes the non-positive one. *)
let check_query ~perturb q a =
  let in_range x = if perturb then not (finite_positive x) else finite_positive x in
  match a.general_out with
  | Some g, Fixed_point.Converged _ -> (
    let cycles =
      List.filter Float.is_finite (Array.to_list g.General.cycle_times)
    in
    cycles <> []
    && List.for_all in_range cycles
    &&
    match a.extra with
    | `None -> true
    | `Client_server s -> in_range s.CS.throughput
    | `All_to_all (Some s, Fixed_point.Converged _) ->
      let r = s.A.r in
      let target = if perturb then r *. 1.001 else r in
      let agree =
        List.for_all (fun rg -> Float.abs (rg -. target) <= 1e-6 *. r) cycles
      in
      let bounded =
        (not (Float.equal q.params.Params.c2 0.))
        ||
        let lo = A.lower_bound q.params ~w:q.w and hi = A.upper_bound q.params ~w:q.w in
        let lo, hi = if perturb then (lo -. 2., lo -. 1.) else (lo, hi) in
        lo <= r && r <= hi
      in
      agree && bounded
    | `All_to_all _ -> false)
  | _ -> false

let iterations = function
  | Fixed_point.Converged { iters } -> Some iters
  | Fixed_point.Saturated _ | Fixed_point.Diverged _ | Fixed_point.Exhausted _ -> None

(* Per-call and per-query times, and solver iteration counts, gathered by
   traced passes. *)
type timings = {
  mutable general_s : float list;
  mutable a2a_s : float list;
  mutable cs_s : float list;
  mutable iters : int list;
  mutable passes : task_times list;  (* each query is one task *)
}

let timings () = { general_s = []; a2a_s = []; cs_s = []; iters = []; passes = [] }

let timed_call spans ~parent name f =
  let t0 = Span.now () in
  let r = f () in
  let t1 = Span.now () in
  ignore (Span.add spans ~parent name ~start_ns:t0 ~end_ns:t1);
  (Span.seconds_between t0 t1, r)

let traced_answers tm spans ~parent queries =
  let note_iters status = Option.iter (fun n -> tm.iters <- n :: tm.iters) (iterations status) in
  let t0 = Span.now () in
  let answered =
    Array.mapi
      (fun i q ->
        time (fun () ->
            Span.enter spans ~parent (Printf.sprintf "model.query #%d" i) (fun id ->
                let s, general_out =
                  timed_call spans ~parent:id "core.General.solve_status" (fun () ->
                      solve_general q)
                in
                tm.general_s <- s :: tm.general_s;
                note_iters (snd general_out);
                let extra =
                  match q.pattern with
                  | Pattern.All_to_all ->
                    let s, e =
                      timed_call spans ~parent:id "core.All_to_all.solve_status" (fun () ->
                          solve_extra q)
                    in
                    tm.a2a_s <- s :: tm.a2a_s;
                    (match e with
                    | `All_to_all (_, status) -> note_iters status
                    | `Client_server _ | `None -> ());
                    e
                  | Pattern.Client_server _ ->
                    let s, e =
                      timed_call spans ~parent:id "core.Client_server.throughput" (fun () ->
                          solve_extra q)
                    in
                    tm.cs_s <- s :: tm.cs_s;
                    e
                  | Pattern.All_to_all_staggered | Pattern.Hotspot _ | Pattern.Multi_hop _ ->
                    `None
                in
                { general_out; extra })))
      queries
  in
  tm.passes <-
    {
      batches = [ Array.to_list (Array.map fst answered) ];
      wall = Span.seconds_between t0 (Span.now ());
      jobs = 1;
    }
    :: tm.passes;
  Array.map snd answered

let model_layers tm =
  let us l = if l = [] then 0. else Stat.mean l *. 1e6 in
  let its = List.map Float.of_int tm.iters in
  let query_s = List.concat_map (fun p -> List.concat p.batches) tm.passes in
  [
    ("core.general_us", us tm.general_s);
    ("core.all_to_all_us", us tm.a2a_s);
    ("core.client_server_us", us tm.cs_s);
    ("numerics.iterations_mean", if its = [] then 0. else Stat.mean its);
    ("numerics.iterations_max", if its = [] then 0. else Stat.maximum its);
    ("model.query_p50_us", Stat.quantile query_s 0.5 *. 1e6);
    ("model.query_p99_us", Stat.quantile query_s 0.99 *. 1e6);
  ]

(* The probe that measures core, numerics and the query path for workloads
   that do not use them: one query per machine size, from seed 0. *)
let probe spans ~parent =
  let tm = timings () in
  ignore (traced_answers tm spans ~parent (generate (Rng.create 0) 31));
  model_layers tm

let setup ~size ~seed ~perturb ~nproc:_ =
  let queries = generate (Rng.create seed) (queries_of size) in
  let last = ref [||] in
  let pass () = last := Array.map answer queries in
  let check () =
    let acc = ref no_checks in
    Array.iteri
      (fun i a -> acc := tally_add !acc (Workload.check (check_query ~perturb queries.(i) a)))
      !last;
    !acc
  in
  let tm = timings () in
  let traced_pass spans ~parent = last := traced_answers tm spans ~parent queries in
  let layers _spans ~parent:_ = (model_layers tm @ repro_metrics tm.passes, no_checks) in
  { pass; check; traced_pass; layers }

let workload = { name = "model-grid"; setup }
