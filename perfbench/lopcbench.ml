(* The benchmark runner. perfbench/run.py builds this executable and runs

     lopcbench.exe --workload NAME --seed N --seconds S --trace 0|1

   from the repository root. The last line of stdout is one JSON object
   with the keys correct, attempted, failed and metrics: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1. The line
   before it is the run's context: host, raw pass and set-up times, host
   reference times. See perfbench/README.md.

   Other modes: --smoke runs every workload at tiny size and checks that
   the checks pass, that the perturbed reference fails all of them and
   that the traced run writes valid trace JSON (the runtest alias runs
   it); --record prints the simulator workloads' reference digests. *)

open Workload

let workloads = [ Work_sim.paper; Work_sim.fault; Work_exact.workload; Work_model.workload ]

let per_layer =
  [
    ("prng.ns_per_draw", "ns");
    ("dist.ns_per_sample", "ns");
    ("stats.ns_per_update", "ns");
    ("eventsim.ns_per_op", "ns");
    ("eventsim.pending_mean", "count");
    ("eventsim.pending_max", "count");
    ("activemsg.events", "count");
    ("activemsg.max_backlog", "count");
    ("activemsg.ns_per_event", "ns");
    ("activemsg.self_ns_per_event", "ns");
    ("activemsg.alloc_words_per_event", "words");
    ("activemsg.retransmits_per_cycle", "ratio");
    ("activemsg.goodput_ratio", "ratio");
    ("obs.probe_overhead", "ratio");
    ("repro.tasks", "count");
    ("repro.work_s", "s");
    ("repro.span_s", "s");
    ("repro.parallel_efficiency", "ratio");
    ("markov.states", "count");
    ("markov.sweeps", "count");
    ("markov.explore_s", "s");
    ("markov.build_s", "s");
    ("markov.ns_per_state_sweep", "ns");
    ("markov.alloc_mb", "MB");
    ("core.general_us", "us");
    ("core.all_to_all_us", "us");
    ("core.client_server_us", "us");
    ("numerics.iterations_mean", "count");
    ("numerics.iterations_max", "count");
    ("model.query_p50_us", "us");
    ("model.query_p99_us", "us");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("obs.trace_overhead", "ratio");
  ]

(* Every traced run reports every layer. A workload that does not
   exercise a layer group has it measured on that group's small fixed
   probe, keyed here by one metric of the group; the context line lists
   the probed metrics. *)
let probes =
  [
    ("prng.ns_per_draw", Work_sim.probe);
    ("markov.states", Work_exact.probe);
    ("core.general_us", Work_model.probe);
  ]

(* Set-up is repeated between the timed passes and reported as a median,
   so that work moved into set-up shows: after each pass, until a
   fortieth of that pass's time has gone to it, at least once and at most
   [setup_max] times. Spreading it over the run exposes it to the same
   host conditions as the passes. *)
let setup_max = 100

(* peak_heap_mb is the major-heap high-water mark over [heap_passes]
   untimed serial passes, made right after the first set-up and a
   compaction, before anything else has touched the heap: a single pass's
   mark moves by a few 32 KiB pools with the phase the major GC happens to
   be in, and the maximum over a few passes settles it. *)
let heap_passes = 3

type options = {
  workload : Workload.t;
  seed : int;
  seconds : float;
  size : size;
  perturb : bool;
  nproc : int;
  git_sha : string;
  out_dir : string;
}

type result = {
  tally : tally;
  metrics : (string * float * string) list;
  context : (string * string) list;  (* key, JSON value *)
}

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.12g" x
  else "null"

let json_obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> Span.json_string k ^ ":" ^ v) fields) ^ "}"

let distribution xs =
  json_obj
    [
      ("count", string_of_int (List.length xs));
      ("min", json_float (Stat.minimum xs));
      ("q1", json_float (Stat.quantile xs 0.25));
      ("median", json_float (Stat.median xs));
      ("q3", json_float (Stat.quantile xs 0.75));
      ("max", json_float (Stat.maximum xs));
    ]

let host o =
  json_obj
    [
      ("nproc", string_of_int o.nproc);
      ("recommended_domain_count", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Span.json_string Sys.ocaml_version);
      ("git_sha", Span.json_string o.git_sha);
    ]

let setup o = o.workload.setup ~size:o.size ~seed:o.seed ~perturb:o.perturb ~nproc:o.nproc

(* The untraced run: end-to-end metrics. wall_s and setup_s are medians
   of host-corrected samples (see Host_ref): the reference runs once
   before the first timed pass and after every pass; a pass is corrected
   by the mean of the reference times before and after it, a set-up by
   the one just before it (the first set-up by the first). The raw
   times are in the context line. *)
let run_untraced o =
  let corrected raw reference = raw *. Host_ref.nominal_s /. reference in
  let first_s, inst = time (fun () -> setup o) in
  let tally = ref no_checks in
  Gc.compact ();
  for _ = 1 to heap_passes do
    inst.pass ();
    tally := tally_add !tally (inst.check ())
  done;
  let peak_heap_mb =
    Float.of_int (Gc.quick_stat ()).Gc.top_heap_words *. bytes_per_word /. 1e6
  in
  (* The reference runs only now: its own allocation would count in the
     heap mark. *)
  let before = ref (Host_ref.seconds ()) in
  let passes = ref [] and setups = ref [ first_s ] and refs = ref [ !before ] in
  let wall = ref [] and setup_s = ref [ corrected first_s !before ] in
  let t0 = Span.now () in
  while !passes = [] || Span.seconds_between t0 (Span.now ()) < o.seconds do
    let s, () = time inst.pass in
    tally := tally_add !tally (inst.check ());
    let after = Host_ref.seconds () in
    passes := s :: !passes;
    refs := after :: !refs;
    wall := corrected s ((!before +. after) /. 2.) :: !wall;
    before := after;
    let spent = ref 0. and count = ref 0 in
    while !count = 0 || (!spent < s /. 40. && !count < setup_max) do
      let t, (_ : instance) = time (fun () -> setup o) in
      setups := t :: !setups;
      setup_s := corrected t after :: !setup_s;
      spent := !spent +. t;
      incr count
    done
  done;
  {
    tally = !tally;
    metrics =
      [
        ("setup_s", Stat.median !setup_s, "s");
        ("wall_s", Stat.median !wall, "s");
        ("peak_heap_mb", peak_heap_mb, "MB");
      ];
    context =
      [
        ("host", host o);
        ("passes_s", distribution !passes);
        ("setups_s", distribution !setups);
        ("host_ref_s", distribution !refs);
        ("host_ref_nominal_s", json_float Host_ref.nominal_s);
        ("statistic", Span.json_string "median of host-corrected samples");
      ];
  }

(* The traced run: per-layer metrics, with spans written as Chrome trace
   JSON. Untraced and traced passes alternate so that their ratio is
   obs.trace_overhead. *)
let run_traced o =
  let spans = Span.create () in
  let plain = ref [] and traced = ref [] and tally = ref no_checks and probed = ref [] in
  let measured =
    Span.enter spans "run" (fun root ->
        let inst = Span.enter spans ~parent:root "setup" (fun _ -> setup o) in
        (* The collections of one pass, from a compacted heap, before
           anything whose amount depends on timing has run. *)
        Gc.compact ();
        let g0 = Gc.quick_stat () in
        inst.pass ();
        let g1 = Gc.quick_stat () in
        tally := inst.check ();
        let t0 = Span.now () in
        while
          List.length !plain < 3 || Span.seconds_between t0 (Span.now ()) < o.seconds /. 2.
        do
          let s, () = time inst.pass in
          plain := s :: !plain;
          tally := tally_add !tally (inst.check ());
          let s, () =
            time (fun () ->
                Span.enter spans ~parent:root "pass" (fun id ->
                    inst.traced_pass spans ~parent:id))
          in
          traced := s :: !traced;
          tally := tally_add !tally (inst.check ())
        done;
        let layers, checked =
          Span.enter spans ~parent:root "layers" (fun id -> inst.layers spans ~parent:id)
        in
        tally := tally_add !tally checked;
        let layers =
          List.fold_left
            (fun acc (key, probe) ->
              if List.mem_assoc key acc then acc
              else begin
                let measured =
                  Span.enter spans ~parent:root "probe" (fun id -> probe spans ~parent:id)
                in
                probed := !probed @ List.map fst measured;
                acc @ measured
              end)
            layers probes
        in
        let collections f = Float.of_int (f g1 - f g0) in
        layers
        @ [
            ("gc.minor_collections", collections (fun g -> g.Gc.minor_collections));
            ("gc.major_collections", collections (fun g -> g.Gc.major_collections));
            ("obs.trace_overhead", Stat.median !traced /. Stat.median !plain);
          ])
  in
  let metrics =
    List.map
      (fun (name, unit) ->
        match List.assoc_opt name measured with
        | Some v -> (name, v, unit)
        | None -> failwith ("no measurement of " ^ name))
      per_layer
  in
  if not (Sys.file_exists o.out_dir) then Sys.mkdir o.out_dir 0o755;
  let path =
    Filename.concat o.out_dir (Printf.sprintf "%s-seed%d.trace.json" o.workload.name o.seed)
  in
  Span.write_chrome spans ~path
    ~meta:
      [
        ("workload", o.workload.name);
        ("seed", string_of_int o.seed);
        ("git_sha", o.git_sha);
        ("ocaml", Sys.ocaml_version);
      ];
  {
    tally = !tally;
    metrics;
    context =
      [
        ("host", host o);
        ("passes_s", distribution !plain);
        ("traced_passes_s", distribution !traced);
        ("spans", string_of_int (Span.count spans));
        ("probed", "[" ^ String.concat "," (List.map Span.json_string !probed) ^ "]");
        ("trace_file", Span.json_string path);
      ];
  }

let report o ~traced r =
  print_endline
    (json_obj
       [
         ( "context",
           json_obj
             ([
                ("workload", Span.json_string o.workload.name);
                ("seed", string_of_int o.seed);
                ("trace", string_of_int (if traced then 1 else 0));
              ]
             @ r.context) );
       ]);
  print_endline
    (json_obj
       [
         ("correct", if r.tally.failed = 0 && r.tally.attempted > 0 then "true" else "false");
         ("attempted", string_of_int r.tally.attempted);
         ("failed", string_of_int r.tally.failed);
         ( "metrics",
           json_obj
             (List.map
                (fun (name, value, unit) ->
                  ( name,
                    json_obj
                      [ ("value", json_float value); ("unit", Span.json_string unit) ] ))
                r.metrics) );
       ])

let smoke o =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  List.iter
    (fun workload ->
      let o = { o with workload; size = Tiny; seconds = 0. } in
      let name = workload.name in
      let r = run_untraced o in
      if r.tally.attempted = 0 || r.tally.failed > 0 then
        fail "%s: %d of %d checks failed" name r.tally.failed r.tally.attempted;
      List.iter
        (fun (m, v, _) ->
          if not (Float.is_finite v && v > 0.) then fail "%s: %s = %g" name m v)
        r.metrics;
      let p = run_untraced { o with perturb = true } in
      if p.tally.attempted = 0 || p.tally.failed <> p.tally.attempted then
        fail "%s: perturbed reference failed only %d of %d checks" name p.tally.failed
          p.tally.attempted;
      let t = run_traced o in
      if t.tally.failed > 0 then fail "%s: traced run failed %d checks" name t.tally.failed;
      List.iter
        (fun (m, v, _) -> if not (Float.is_finite v) then fail "%s: %s is not finite" name m)
        t.metrics;
      let path =
        Filename.concat o.out_dir (Printf.sprintf "%s-seed%d.trace.json" name o.seed)
      in
      match Json_check.file path with
      | Ok () -> ()
      | Error e -> fail "%s: %s: %s" name path e)
    workloads;
  match List.rev !failures with
  | [] -> 0
  | l ->
    List.iter prerr_endline l;
    1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let perturb = ref false and nproc = ref 0 and git_sha = ref "unknown" in
  let mode = ref `Run in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the inputs are built from");
      ("--seconds", Arg.Set_float seconds, "S time to measure for");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--perturb", Arg.Set perturb, " alter every reference so that each check fails");
      ("--nproc", Arg.Set_int nproc, "N worker domains of the sim-paper pool");
      ("--git-sha", Arg.Set_string git_sha, "SHA reported in the host block");
      ("--smoke", Arg.Unit (fun () -> mode := `Smoke), " tiny runs of every workload");
      ("--record", Arg.Unit (fun () -> mode := `Record), " print the reference digests");
    ]
  in
  let usage = "lopcbench.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let die msg =
    prerr_endline ("lopcbench: " ^ msg);
    exit 2
  in
  let nproc = if !nproc > 0 then !nproc else Domain.recommended_domain_count () in
  let options workload =
    {
      workload; seed = !seed; seconds = !seconds; size = Full; perturb = !perturb; nproc;
      git_sha = !git_sha; out_dir = "perfbench/out";
    }
  in
  match !mode with
  | `Record ->
    Work_sim.record Work_sim.Paper;
    Work_sim.record Work_sim.Fault_sweep
  | `Smoke -> exit (smoke { (options Work_sim.paper) with out_dir = "." })
  | `Run -> (
    let o =
      match List.find_opt (fun w -> w.name = !workload) workloads with
      | Some w -> options w
      | None ->
        die
          (Printf.sprintf "unknown workload %S (one of: %s)" !workload
             (String.concat ", " (List.map (fun w -> w.name) workloads)))
    in
    if !seconds < 0. then die "--seconds must be non-negative";
    match !trace with
    | 0 -> report o ~traced:false (run_untraced o)
    | 1 -> report o ~traced:true (run_traced o)
    | _ -> die "--trace must be 0 or 1")
