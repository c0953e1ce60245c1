(* The two simulator workloads.

   sim-paper: the fault-free simulated paper artifacts fig5.2 (all-to-all,
   W swept from fine to coarse grain) and fig6.2 (work pile, 1-31 servers)
   at Quick fidelity, on a Parallel pool of nproc workers, as
   `bench/main.exe --quick` runs them.

   sim-fault: the fault sweep (16-node all-to-all with loss, duplication,
   delay spikes and timeout-retransmit), serially.

   Both are built with Experiments.plans and run with Experiments.run_plan.
   The per-layer metrics come from a replica of the artifacts' sweep points:
   the benchmark's own Machine.run calls on the same specs and cycle
   counts, followed by replays of the calls those runs make into prng,
   dist, stats and eventsim. *)

module Experiments = Lopc_repro.Experiments
module Parallel = Lopc_repro.Parallel
module Table = Lopc_repro.Table
module Machine = Lopc_activemsg.Machine
module Metrics = Lopc_activemsg.Metrics
module Spec = Lopc_activemsg.Spec
module Fault = Lopc_activemsg.Fault
module Pattern = Lopc_workloads.Pattern
module D = Lopc_dist.Distribution
module Rng = Lopc_prng.Rng
module Welford = Lopc_stats.Welford
module Event_heap = Lopc_eventsim.Event_heap
module Sim_probe = Lopc_obs.Sim_probe
module Recorder = Lopc_obs.Recorder
open Workload

type kind = Paper | Fault_sweep

let artifacts = function Paper -> [ "fig5.2"; "fig6.2" ] | Fault_sweep -> [ "fault" ]

(* --seed picks one of these library seeds; each has recorded digests. *)
let variant_seeds = [| 42; 7; 1997; 2024 |]

let library_seed seed =
  let n = Array.length variant_seeds in
  variant_seeds.(((seed mod n) + n) mod n)

(* Tiny size runs the first points of each artifact only. *)
let tiny_points = 2

(* MD5 of Table.to_csv for each (artifact, size, library seed), recorded
   from the library with `lopcbench.exe --record`. A change to the
   simulator's output changes these on purpose; re-record them then. *)
let reference =
  [
    (("fig5.2", Full, 42), "aceaa47588c10610ab5acb7128a5fdaa");
    (("fig6.2", Full, 42), "b34f42fea10fccb50c2baea8908c36a3");
    (("fig5.2", Full, 7), "85f5ba1d06576eacd014a33206073e56");
    (("fig6.2", Full, 7), "96e8a35fcb093b0d3ec10dba0e2359e2");
    (("fig5.2", Full, 1997), "7313f1652d60905e3dc52057dd57a86e");
    (("fig6.2", Full, 1997), "2a61e1cc375a708bb17eaa75d717bb42");
    (("fig5.2", Full, 2024), "2b48d3a9ef01d98b6e9dc6b4d5b5e961");
    (("fig6.2", Full, 2024), "aa04a38e869a51e49961d58d9b8d6bcb");
    (("fig5.2", Tiny, 42), "d220e621044c73e6de5327073e413fb4");
    (("fig6.2", Tiny, 42), "7d7909bf744e2a1f8537ea725fd20cc7");
    (("fig5.2", Tiny, 7), "67a343f0008c4845f018a81e1ebdb234");
    (("fig6.2", Tiny, 7), "8b60bd24e781c428cdec25081840f730");
    (("fig5.2", Tiny, 1997), "2d5a2417ba8eb88391a00e513b8badc7");
    (("fig6.2", Tiny, 1997), "4454c9aa7f1389dfd8f33ac22156d3cd");
    (("fig5.2", Tiny, 2024), "805b7878e5d6e992e25ac1dcd3e47502");
    (("fig6.2", Tiny, 2024), "0a3b760780e2743e510ce872aff24516");
    (("fault", Full, 42), "9b1c7d6c0c9b7f588c1a0426472d4034");
    (("fault", Full, 7), "135cd6f8116b9a64974594d5df63586e");
    (("fault", Full, 1997), "b226186dc26df818d6917cb1c6578b18");
    (("fault", Full, 2024), "cd5d123dfc2e6288a6645cdda9951b91");
    (("fault", Tiny, 42), "b84ef71fa5ad4b4f38efa9ee3bd8f39a");
    (("fault", Tiny, 7), "2ac9cbfe8f61e39ba7e1713530b4310a");
    (("fault", Tiny, 1997), "dd468418f16df900ac53d781b82b877f");
    (("fault", Tiny, 2024), "480ec7cde3e8aa73103a16e99cc95b64");
  ]

let expected_digest ~size ~lib_seed name =
  Option.value (List.assoc_opt (name, size, lib_seed) reference) ~default:""

let digest csv = Digest.to_hex (Digest.string csv)

let points_of size plan =
  let n = Experiments.task_count plan in
  match size with Full -> n | Tiny -> min tiny_points n

(* Runs the plan's first [points_of size] tasks, serially or on [pool],
   and assembles the table; [observe i task] may wrap each task. At Full
   size this is exactly Experiments.run_plan. *)
let execute ?pool ?observe ~size plan =
  match (size, observe) with
  | Full, None -> Experiments.run_plan ?pool plan
  | _ ->
    let observe = Option.value observe ~default:(fun _ task -> task) in
    let all = plan.Experiments.tasks in
    let n = points_of size plan in
    let tasks = Array.init n (fun i -> observe i all.(i)) in
    let groups =
      match pool with
      | Some pool -> Parallel.run pool tasks
      | None -> Array.map (fun task -> task ()) tasks
    in
    plan.Experiments.assemble
      (Array.init (Array.length all) (fun i -> if i < n then groups.(i) else []))

let build_plans ~lib_seed names =
  let all = Experiments.plans ~fidelity:Experiments.Quick ~seed:lib_seed () in
  List.map (fun name -> (name, List.assoc name all)) names

(* --- replica of the sweep points --------------------------------------- *)

let wire_latency = 40.

(* The stream Experiments gives the simulator run of point [i] of the [n]
   points of [artifact]: the artifact name folded into the seed with
   FNV-1a, one split child per point, and one more split for the run.
   Each call returns a fresh copy. *)
let point_stream ~lib_seed ~artifact ~n i () =
  let key =
    String.fold_left
      (fun acc c ->
        Int64.mul (Int64.logxor acc (Int64.of_int (Char.code c))) 0x100000001b3L)
      0xcbf29ce484222325L artifact
  in
  let root = Rng.create (Int64.to_int (Int64.logxor key (Int64.of_int lib_seed))) in
  Rng.split (Rng.split_n root n).(i)

(* Where a replica point's result appears in its artifact's table. *)
type row = {
  artifact : string;
  index : int;
  column : string;
  measure : Metrics.t -> float;  (* the column's value, from the run's metrics *)
}

type point = {
  label : string;
  spec : Spec.t;
  cycles : int;
  stream : unit -> Rng.t;
  row : row option;  (* None for a probe point, which no artifact has *)
}

(* The artifacts' simulated points, as EXPERIMENTS.md documents them: the
   same specs, cycle counts and streams as the plans' simulator runs, so
   each replica point reproduces its table row exactly. The replica
   checks hold it to that. *)
let replica_points kind ~size ~lib_seed =
  let cycles = Experiments.sim_cycles Experiments.Quick in
  let series artifact ~column ~measure items =
    let n = List.length items in
    List.filteri
      (fun i _ -> size = Full || i < tiny_points)
      (List.mapi
         (fun index (label, spec, cycles) ->
           {
             label = artifact ^ " " ^ label;
             spec;
             cycles;
             stream = point_stream ~lib_seed ~artifact ~n index;
             row = Some { artifact; index; column; measure };
           })
         items)
  in
  match kind with
  | Paper ->
    series "fig5.2" ~column:"simulator" ~measure:Metrics.mean_response
      (List.map
         (fun w ->
           ( Printf.sprintf "W=%g" w,
             Pattern.to_spec ~nodes:32 ~work:(D.of_mean_scv ~mean:w ~scv:1.)
               ~handler:(D.of_mean_scv ~mean:200. ~scv:0.) ~wire:(D.Constant wire_latency)
               Pattern.All_to_all,
             cycles ))
         [ 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024.; 2048. ])
    @ series "fig6.2" ~column:"simulator X" ~measure:Metrics.throughput
        (List.init 31 (fun i ->
             let servers = i + 1 in
             ( Printf.sprintf "servers=%d" servers,
               Pattern.to_spec ~nodes:32 ~work:(D.Exponential 1000.)
                 ~handler:(D.Exponential 131.) ~wire:(D.Constant wire_latency)
                 (Pattern.Client_server { servers }),
               cycles )))
  | Fault_sweep ->
    series "fault" ~column:"sim R" ~measure:Metrics.mean_response
      (List.map
         (fun (drop, duplicate, delay_epsilon) ->
           let fault =
             Fault.create ~drop ~duplicate ~delay_epsilon
               ~delay_spike:(D.Exponential (10. *. wire_latency)) ~max_tries:10
               ~timeout:20_000. ()
           in
           ( Printf.sprintf "drop=%g dup=%g eps=%g" drop duplicate delay_epsilon,
             Pattern.to_spec ~fault ~nodes:16 ~work:(D.of_mean_scv ~mean:1000. ~scv:1.)
               ~handler:(D.of_mean_scv ~mean:200. ~scv:1.) ~wire:(D.Constant wire_latency)
               Pattern.All_to_all,
             cycles / 2 ))
         [
           (0., 0., 0.); (0.01, 0., 0.); (0.02, 0., 0.); (0.05, 0., 0.);
           (0.02, 0.05, 0.); (0.02, 0., 0.1);
         ])

type replica = {
  seconds : float;
  events : int;
  cycles_total : int;  (* completed or abandoned cycles, warm-up included *)
  measured_cycles : int;
  failed_cycles : int;
  request_sends : int;
  retransmits : int;
  max_backlog : int;
  alloc_words : float;
  results : (row * float) list;  (* each artifact point's column value *)
}

let run_replica ?probe spans ~parent points =
  Span.enter spans ~parent "activemsg.replica" (fun id ->
      let words0 = allocated_words () in
      let t0 = Span.now () in
      let acc =
        List.fold_left
          (fun acc p ->
            let obs = Option.map (fun make -> make p.spec) probe in
            let r =
              Span.enter spans ~parent:id ("activemsg.Machine.run " ^ p.label) (fun _ ->
                  Machine.run ~rng:(p.stream ()) ?obs ~spec:p.spec ~cycles:p.cycles ())
            in
            let m = r.Machine.metrics in
            let warmup = max 1000 (p.cycles / 10) in
            {
              acc with
              events = acc.events + r.Machine.events;
              cycles_total =
                acc.cycles_total + warmup + m.Metrics.cycles + m.Metrics.failed_cycles;
              measured_cycles = acc.measured_cycles + m.Metrics.cycles;
              failed_cycles = acc.failed_cycles + m.Metrics.failed_cycles;
              request_sends = acc.request_sends + m.Metrics.request_sends;
              retransmits = acc.retransmits + m.Metrics.retransmits;
              max_backlog = max acc.max_backlog (Metrics.max_handler_backlog m);
              results =
                (match p.row with
                | Some row -> (row, row.measure m) :: acc.results
                | None -> acc.results);
            })
          {
            seconds = 0.; events = 0; cycles_total = 0; measured_cycles = 0;
            failed_cycles = 0; request_sends = 0; retransmits = 0; max_backlog = 0;
            alloc_words = 0.; results = [];
          }
          points
      in
      let seconds = Span.seconds_between t0 (Span.now ()) in
      {
        acc with
        seconds;
        alloc_words = allocated_words () -. words0;
        results = List.rev acc.results;
      })

(* One check per artifact that the replica has as many points as the
   artifact's plan has tasks at this size, and one per point that its
   result equals its row of [tables], the last pass's. *)
let replica_checks ~size ~lib_seed ~perturb tables replica =
  let off = if perturb then 1 else 0 in
  let counts =
    List.map
      (fun (name, plan) ->
        let n =
          List.length (List.filter (fun (r, _) -> r.artifact = name) replica.results)
        in
        Workload.check (n = points_of size plan + off))
      (build_plans ~lib_seed (List.map fst tables))
  in
  let rows =
    List.map
      (fun (r, value) ->
        let expected = (Table.column (List.assoc r.artifact tables) r.column).(r.index) in
        Workload.check (Float.equal value (expected +. Float.of_int off)))
      replica.results
  in
  List.fold_left tally_add no_checks (counts @ rows)

(* Engine heap sizes sampled by a Sim_probe (every 256 events) across the
   points: (mean, max). *)
let pending_sizes spans ~parent points =
  let sum = ref 0. and n = ref 0 and hi = ref 0. in
  Span.enter spans ~parent "eventsim.pending_probe" (fun _ ->
      List.iter
        (fun p ->
          let recorder = Recorder.create ~limit:max_int () in
          let obs = Sim_probe.create ~recorder ~nodes:p.spec.Spec.nodes () in
          ignore (Machine.run ~rng:(p.stream ()) ~obs ~spec:p.spec ~cycles:p.cycles ());
          List.iter
            (fun e ->
              if e.Recorder.kind = Recorder.Counter && e.Recorder.name = "heap" then
                match e.Recorder.args with
                | [ (_, Recorder.Num v) ] ->
                  sum := !sum +. v;
                  incr n;
                  hi := Float.max !hi v
                | _ -> ())
            (Recorder.events recorder))
        points);
  ((if !n = 0 then 0. else !sum /. Float.of_int !n), !hi)

(* --- replays of the layers' public calls -------------------------------- *)

let ns_per seconds n = if n <= 0 then 0. else seconds *. 1e9 /. Float.of_int n

let replay spans ~parent name n body =
  Span.enter spans ~parent name (fun _ ->
      let seconds, () = time (fun () -> body n) in
      ns_per seconds n)

let replay_draws n =
  let rng = Rng.create 1 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Rng.float rng
  done;
  ignore (Sys.opaque_identity !acc)

let replay_samples dists n =
  let rng = Rng.create 2 in
  let k = Array.length dists in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. D.sample dists.(i mod k) rng
  done;
  ignore (Sys.opaque_identity !acc)

let replay_updates n =
  let rng = Rng.create 3 in
  let values = Array.init 4096 (fun _ -> Rng.exponential rng 1000.) in
  let accs = Array.init 10 (fun _ -> Welford.create ()) in
  for i = 0 to n - 1 do
    Welford.add accs.(i mod 10) values.(i land 4095)
  done;
  ignore (Sys.opaque_identity accs)

(* A push/pop pair on a heap held at [size] pending events. *)
let replay_queue_ops ~size n =
  let rng = Rng.create 4 in
  let delays = Array.init 4096 (fun _ -> Rng.exponential rng 100.) in
  let heap = Event_heap.create () in
  for i = 0 to size - 1 do
    Event_heap.push heap ~time:delays.(i land 4095) i
  done;
  for i = 0 to n - 1 do
    let now = Event_heap.peek_time_exn heap in
    match Event_heap.pop_payload heap with
    | Some v -> Event_heap.push heap ~time:(now +. delays.(i land 4095)) v
    | None -> ()
  done;
  ignore (Sys.opaque_identity heap)

(* Per completed cycle the machine samples five distributions (work,
   request handler, reply handler, two wire hops) and draws one route;
   per measured cycle its Metrics make ten Welford updates (six cycle
   quantities, and one handler-service and one arrival-backlog update per
   handler). Fault-layer draws, P² quantiles and time averages are not
   replayed and stay in the machine's self time. *)
let samples_per_cycle = 5
let updates_per_measured_cycle = 10

let cycle_distributions spec =
  let work =
    match Array.find_opt Option.is_some spec.Spec.threads with
    | Some (Some t) -> t.Spec.work
    | Some None | None -> D.Constant 0.
  in
  [| work; spec.Spec.handler; spec.Spec.reply_handler; spec.Spec.wire; spec.Spec.wire |]

(* The simulator layers, measured on a replica of [points]; also returns
   the first plain replica run. *)
let simulator_layers spans ~parent points =
  let reps = 3 in
  let plain = List.init reps (fun _ -> run_replica spans ~parent points) in
  let probed =
    List.init reps (fun _ ->
        run_replica spans ~parent
          ~probe:(fun spec -> Sim_probe.create ~nodes:spec.Spec.nodes ())
          points)
  in
  let r = List.hd plain in
  let plain_s = Stat.median (List.map (fun r -> r.seconds) plain) in
  let probed_s = Stat.median (List.map (fun r -> r.seconds) probed) in
  let pending_mean, pending_max = pending_sizes spans ~parent points in
  let dists =
    Array.concat (List.map (fun p -> cycle_distributions p.spec) points)
  in
  let route_draws = r.cycles_total in
  let samples = samples_per_cycle * r.cycles_total in
  let updates = updates_per_measured_cycle * r.measured_cycles in
  let med f = Stat.median (List.init reps (fun _ -> f ())) in
  let prng = med (fun () -> replay spans ~parent "prng.replay" route_draws replay_draws) in
  let dist = med (fun () -> replay spans ~parent "dist.replay" samples (replay_samples dists)) in
  let stats = med (fun () -> replay spans ~parent "stats.replay" updates replay_updates) in
  let queue =
    med (fun () ->
        replay spans ~parent "eventsim.replay" r.events
          (replay_queue_ops ~size:(max 1 (Float.to_int (Float.round pending_mean)))))
  in
  let events = Float.of_int r.events in
  let replayed_ns =
    (Float.of_int route_draws *. prng) +. (Float.of_int samples *. dist)
    +. (Float.of_int updates *. stats) +. (events *. queue)
  in
  [
    ("prng.ns_per_draw", prng);
    ("dist.ns_per_sample", dist);
    ("stats.ns_per_update", stats);
    ("eventsim.ns_per_op", queue);
    ("eventsim.pending_mean", pending_mean);
    ("eventsim.pending_max", pending_max);
    ("activemsg.events", events);
    ("activemsg.max_backlog", Float.of_int r.max_backlog);
    ("activemsg.ns_per_event", plain_s *. 1e9 /. events);
    ("activemsg.self_ns_per_event", ((plain_s *. 1e9) -. replayed_ns) /. events);
    ("activemsg.alloc_words_per_event", r.alloc_words /. events);
    ( "activemsg.retransmits_per_cycle",
      Float.of_int r.retransmits /. Float.of_int (r.measured_cycles + r.failed_cycles) );
    (* Without a fault layer requests are not counted: every one is
       answered on its first try. *)
    ( "activemsg.goodput_ratio",
      if r.request_sends = 0 then 1.
      else Float.of_int r.measured_cycles /. Float.of_int r.request_sends );
    ("obs.probe_overhead", probed_s /. plain_s);
  ],
  r

(* The probe that measures the simulator layers for workloads that do not
   run the simulator: one 8-node all-to-all point of the Fig 5-2 machine. *)
let probe spans ~parent =
  fst
    (simulator_layers spans ~parent
       [
         {
           label = "probe all-to-all P=8 W=1000";
           spec =
             Pattern.to_spec ~nodes:8 ~work:(D.Exponential 1000.) ~handler:(D.Constant 200.)
               ~wire:(D.Constant wire_latency) Pattern.All_to_all;
           cycles = 4000;
           stream = (fun () -> Rng.create 42);
           row = None;
         };
       ])

(* --- the workload -------------------------------------------------------- *)

let setup kind ~size ~seed ~perturb ~nproc =
  let lib_seed = library_seed seed in
  let names = artifacts kind in
  (* Plans are single-shot. A pass takes the plans made in set-up or by
     the check after the previous pass, so that no timed pass builds any. *)
  let plans = ref (build_plans ~lib_seed names) in
  let take_plans () =
    match !plans with
    | [] -> build_plans ~lib_seed names
    | p ->
      plans := [];
      p
  in
  let last = ref [] and last_on_pool = ref false and serial_csv = ref [] in
  let pass () =
    last := List.map (fun (name, plan) -> (name, execute ~size plan)) (take_plans ());
    last_on_pool := false
  in
  (* One check per table: its digest matches the reference. Tables made on
     a pool are also compared with the last serial pass's, which must be
     byte-identical. Then the next pass's plans are built. *)
  let check () =
    let tally =
      List.fold_left
        (fun acc (name, table) ->
          let csv = Table.to_csv table in
          let expected = expected_digest ~size ~lib_seed name in
          let expected = if perturb then digest expected else expected in
          let acc = tally_add acc (Workload.check (String.equal (digest csv) expected)) in
          if not !last_on_pool then begin
            serial_csv := (name, csv) :: List.remove_assoc name !serial_csv;
            acc
          end
          else
            match List.assoc_opt name !serial_csv with
            | None -> acc
            | Some serial ->
              let serial = if perturb then serial ^ "\n" else serial in
              tally_add acc (Workload.check (String.equal csv serial)))
        no_checks !last
    in
    if !plans = [] then plans := build_plans ~lib_seed names;
    tally
  in
  (* Runs every artifact, one batch after the other, with a span per task
     (on its worker's domain); returns the per-task times. *)
  let observed_pass ?pool spans ~parent =
    let jobs = match pool with Some p -> Parallel.jobs p | None -> 1 in
    let t0 = Span.now () in
    let plans = Span.enter spans ~parent "repro.plans" (fun _ -> take_plans ()) in
    let batches = ref [] in
    last :=
      List.map
        (fun (name, plan) ->
          let n = points_of size plan in
          let slots = Array.make n (0L, 0L, 0) in
          let observe i task () =
            let t0 = Span.now () in
            let rows = task () in
            slots.(i) <- (t0, Span.now (), (Domain.self () :> int));
            rows
          in
          let table =
            Span.enter spans ~parent ("repro.run_plan " ^ name) (fun id ->
                let table = execute ?pool ~observe ~size plan in
                Array.iteri
                  (fun i (start_ns, end_ns, tid) ->
                    ignore
                      (Span.add spans ~parent:id ~tid
                         (Printf.sprintf "activemsg.task %s #%d" name i)
                         ~start_ns ~end_ns))
                  slots;
                table)
          in
          batches :=
            Array.to_list (Array.map (fun (s, e, _) -> Span.seconds_between s e) slots)
            :: !batches;
          (name, table))
        plans;
    last_on_pool := Option.is_some pool;
    { batches = List.rev !batches; wall = Span.seconds_between t0 (Span.now ()); jobs }
  in
  let traced_pass spans ~parent = ignore (observed_pass spans ~parent) in
  (* Timed passes run serially: on a shared two-core host a pool's pass
     time was too unsteady to bound. The repro.* metrics come from these
     passes instead: sim-paper on a pool of [nproc] workers, as
     `bench/main.exe --quick` runs it, sim-fault serially. *)
  let repro_passes spans ~parent =
    let pool =
      match kind with Paper -> Some (Parallel.create ~jobs:nproc ()) | Fault_sweep -> None
    in
    let runs =
      List.init 3 (fun _ ->
          let times =
            Span.enter spans ~parent "repro.pass" (fun id -> observed_pass ?pool spans ~parent:id)
          in
          (times, check ()))
    in
    Option.iter Parallel.shutdown pool;
    ( repro_metrics (List.map fst runs),
      List.fold_left (fun acc (_, t) -> tally_add acc t) no_checks runs )
  in
  let layers spans ~parent =
    let repro, tally = repro_passes spans ~parent in
    let simulator, replica =
      simulator_layers spans ~parent (replica_points kind ~size ~lib_seed)
    in
    ( simulator @ repro,
      tally_add tally (replica_checks ~size ~lib_seed ~perturb !last replica) )
  in
  { pass; check; traced_pass; layers }

(* Prints the reference digests of every variant and size. *)
let record kind =
  List.iter
    (fun size ->
      Array.iter
        (fun lib_seed ->
          List.iter
            (fun (name, plan) ->
              Printf.printf "    ((%S, %s, %d), %S);\n" name
                (match size with Full -> "Full" | Tiny -> "Tiny")
                lib_seed
                (digest (Table.to_csv (execute ~size plan))))
            (build_plans ~lib_seed (artifacts kind)))
        variant_seeds)
    [ Full; Tiny ]

let paper = { name = "sim-paper"; setup = setup Paper }
let fault = { name = "sim-fault"; setup = setup Fault_sweep }
