(* exact-chain: Exact_machine.all_to_all_status on the P=3 and P=4 points of
   results/exact.csv (exponential W/So/St, So=200, St=40), in an order the
   seed picks. All host time is in lopc_markov: state exploration, the CSR
   build and Gauss-Seidel sweeps. The P=5 point (246k states, ~6 s) is
   left out so that a run holds many passes. *)

module Exact_machine = Lopc_markov.Exact_machine
module Ctmc = Lopc_markov.Ctmc
module Budget = Lopc_robust.Budget
module A = Lopc.All_to_all
module Params = Lopc.Params
module Rng = Lopc_prng.Rng
open Workload

let so = 200.
let st = 40.

(* (P, W, states, exact R) as recorded in results/exact.csv. *)
let recorded =
  [
    (3, 1., 412, 764.415); (3, 200., 412, 942.696); (3, 1000., 412, 1707.57);
    (4, 1., 8865, 766.06); (4, 200., 8865, 944.008); (4, 1000., 8865, 1709.41);
  ]

type point = { p : int; w : float; states : int; exact_r : float; lopc_r : float }

let solve ?budget pt = Exact_machine.all_to_all_status ?budget ~p:pt.p ~w:pt.w ~so ~st ()

let point (p, w, states, exact_r) =
  let params = Params.create ~c2:1. ~p ~st ~so () in
  { p; w; states; exact_r; lopc_r = (A.solve params ~w).A.r }

(* The phases are split from outside with budget fuel: exploration consults
   the budget once per state and each sweep once more, so fuel [states - 1]
   stops inside exploration, fuel [states] stops after the CSR/CSC build,
   before the first sweep. Each phase boundary is timed as the minimum of
   [reps] solves, the least disturbed by the host. *)
let markov_layers spans ~parent points =
  let reps = 5 in
  let timed ?fuel pt =
    Stat.minimum
      (List.init reps (fun _ ->
           let budget = Option.map (fun fuel -> Budget.create ~fuel ()) fuel in
           fst (time (fun () -> solve ?budget pt))))
  in
  let states, sweeps, explore, build, sweep_s, state_sweeps, words =
    Array.fold_left
      (fun (states, sweeps, explore, build, sweep_s, state_sweeps, words) pt ->
        Span.enter spans ~parent (Printf.sprintf "markov.phases P=%d W=%g" pt.p pt.w)
          (fun _ ->
            let words0 = allocated_words () in
            let r, status = solve pt in
            let words = words +. (allocated_words () -. words0) in
            let n = match r with Some r -> r.Exact_machine.states | None -> 0 in
            let iters = match status with Ctmc.Converged { iters } -> iters | _ -> 0 in
            let t_explore = timed ~fuel:(n - 1) pt in
            let t_build = timed ~fuel:n pt in
            let t_full = timed pt in
            ( states + n,
              sweeps + iters,
              explore +. t_explore,
              build +. Float.max 0. (t_build -. t_explore),
              sweep_s +. Float.max 0. (t_full -. t_build),
              state_sweeps + (n * iters),
              words )))
      (0, 0, 0., 0., 0., 0, 0.) points
  in
  [
    ("markov.states", Float.of_int states);
    ("markov.sweeps", Float.of_int sweeps);
    ("markov.explore_s", explore);
    ("markov.build_s", build);
    ("markov.ns_per_state_sweep", sweep_s *. 1e9 /. Float.of_int (max 1 state_sweeps));
    ("markov.alloc_mb", words *. bytes_per_word /. 1e6);
  ]

(* The probe that measures markov for workloads that do not use it: the
   P = 3, W = 200 point. *)
let probe spans ~parent = markov_layers spans ~parent [| point (3, 200., 412, 942.696) |]

let setup ~size ~seed ~perturb ~nproc:_ =
  let points =
    Array.of_list
      (List.filter_map
         (fun ((p, _, _, _) as r) -> if size = Tiny && p > 3 then None else Some (point r))
         recorded)
  in
  Rng.shuffle_in_place (Rng.create seed) points;
  let last = ref [||] in
  let pass () = last := Array.map (fun pt -> (pt, solve pt)) points in
  let check () =
    Array.fold_left
      (fun acc (pt, outcome) ->
        let ok =
          match outcome with
          | Some r, Ctmc.Converged _ ->
            let reference = if perturb then pt.exact_r *. 1.001 else pt.exact_r in
            String.equal (Printf.sprintf "%g" r.Exact_machine.cycle_time)
              (Printf.sprintf "%g" reference)
            && r.Exact_machine.states = pt.states
            && pt.lopc_r >= r.Exact_machine.cycle_time
          | _ -> false
        in
        tally_add acc (Workload.check ok))
      no_checks !last
  in
  (* Each solve is one task of the pass; their times give repro.*. *)
  let passes = ref [] in
  let traced_pass spans ~parent =
    let t0 = Span.now () in
    let timed =
      Array.map
        (fun pt ->
          let s, outcome =
            time (fun () ->
                Span.enter spans ~parent (Printf.sprintf "markov.solve P=%d W=%g" pt.p pt.w)
                  (fun _ -> solve pt))
          in
          (s, (pt, outcome)))
        points
    in
    last := Array.map snd timed;
    passes :=
      {
        batches = [ Array.to_list (Array.map fst timed) ];
        wall = Span.seconds_between t0 (Span.now ());
        jobs = 1;
      }
      :: !passes
  in
  let layers spans ~parent =
    (markov_layers spans ~parent points @ repro_metrics !passes, no_checks)
  in
  { pass; check; traced_pass; layers }

let workload = { name = "exact-chain"; setup }
