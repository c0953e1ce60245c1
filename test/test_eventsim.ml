(* Tests for lopc_eventsim: heap ordering, engine semantics, and an M/M/1
   queue simulated on the engine against theory. *)

module Heap = Lopc_eventsim.Event_heap
module Engine = Lopc_eventsim.Engine
module Rng = Lopc_prng.Rng

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter (fun (t, v) -> Heap.push h ~time:t v) [ (3., "c"); (1., "a"); (2., "b") ];
  let pop () = match Heap.pop h with Some (_, v) -> v | None -> Alcotest.fail "empty" in
  Alcotest.(check string) "first" "a" (pop ());
  Alcotest.(check string) "second" "b" (pop ());
  Alcotest.(check string) "third" "c" (pop ());
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  for i = 0 to 9 do
    Heap.push h ~time:5. i
  done;
  for i = 0 to 9 do
    match Heap.pop h with
    | Some (_, v) -> Alcotest.(check int) "insertion order" i v
    | None -> Alcotest.fail "empty"
  done

let test_heap_interleaved () =
  let h = Heap.create () in
  Heap.push h ~time:10. 10;
  Heap.push h ~time:5. 5;
  (match Heap.pop h with
  | Some (t, v) ->
    Alcotest.(check (float 0.)) "time" 5. t;
    Alcotest.(check int) "value" 5 v
  | None -> Alcotest.fail "empty");
  Heap.push h ~time:1. 1;
  (match Heap.pop h with
  | Some (_, v) -> Alcotest.(check int) "later insert wins" 1 v
  | None -> Alcotest.fail "empty");
  Alcotest.(check int) "one left" 1 (Heap.size h)

let test_heap_many_random () =
  let h = Heap.create () in
  let g = Rng.create 5 in
  let times = Array.init 1000 (fun _ -> Rng.float g) in
  Array.iter (fun t -> Heap.push h ~time:t t) times;
  let last = ref neg_infinity in
  for _ = 1 to 1000 do
    match Heap.pop h with
    | Some (t, _) ->
      if t < !last then Alcotest.fail "heap order violated";
      last := t
    | None -> Alcotest.fail "unexpected empty"
  done

let test_heap_rejects_nan () =
  let h = Heap.create () in
  Alcotest.check_raises "nan" (Invalid_argument "Event_heap.push: non-finite time")
    (fun () -> Heap.push h ~time:Float.nan ())

(* Regression: a popped entry must be collectable immediately. Before the
   fix, [pop] left entries reachable through vacated slots above [size] and
   [clear] kept the whole backing array, so long simulations retained dead
   payload closures. Probed through a weak array so the test sees exactly
   what the GC sees. *)
let test_heap_releases_popped_payloads () =
  let h = Heap.create () in
  let n = 64 in
  let weak = Weak.create n in
  for i = 0 to n - 1 do
    let payload = ref i in
    Weak.set weak i (Some payload);
    Heap.push h ~time:(Float.of_int i) payload
  done;
  (* Pop half: those payloads must die while the rest stay reachable. *)
  for _ = 1 to n / 2 do
    ignore (Heap.pop h)
  done;
  Gc.full_major ();
  for i = 0 to (n / 2) - 1 do
    if Weak.check weak i then
      Alcotest.failf "popped payload %d still reachable from the heap" i
  done;
  for i = n / 2 to n - 1 do
    if not (Weak.check weak i) then Alcotest.failf "live payload %d was lost" i
  done;
  (* Pop the rest: the backing array must not keep anything alive. *)
  for _ = 1 to n / 2 do
    ignore (Heap.pop h)
  done;
  Gc.full_major ();
  for i = 0 to n - 1 do
    if Weak.check weak i then
      Alcotest.failf "payload %d survived a full drain" i
  done

let test_heap_clear_releases_payloads () =
  let h = Heap.create () in
  let weak = Weak.create 8 in
  for i = 0 to 7 do
    let payload = ref i in
    Weak.set weak i (Some payload);
    Heap.push h ~time:(Float.of_int i) payload
  done;
  Heap.clear h;
  Gc.full_major ();
  for i = 0 to 7 do
    if Weak.check weak i then
      Alcotest.failf "payload %d survived clear" i
  done;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h)

let test_engine_order_and_clock () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:2. (fun e -> log := (Engine.now e, "b") :: !log));
  ignore (Engine.schedule e ~delay:1. (fun e -> log := (Engine.now e, "a") :: !log));
  Engine.run e;
  Alcotest.(check (list (pair (float 0.) string))) "ordered with clock"
    [ (1., "a"); (2., "b") ]
    (List.rev !log)

let test_engine_cascading () =
  let e = Engine.create () in
  let finished = ref 0. in
  ignore
    (Engine.schedule e ~delay:1. (fun e ->
         ignore (Engine.schedule e ~delay:1. (fun e -> finished := Engine.now e))));
  Engine.run e;
  Alcotest.(check (float 0.)) "nested schedule" 2. !finished

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~delay:1. (fun _ -> fired := true) in
  Engine.cancel h;
  Engine.run e;
  Alcotest.(check bool) "cancelled event did not fire" false !fired;
  Alcotest.(check bool) "is_cancelled" true (Engine.is_cancelled h)

let test_engine_until () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule e ~delay:(Float.of_int i) (fun _ -> incr count))
  done;
  Engine.run ~until:5.5 e;
  Alcotest.(check int) "only events before horizon" 5 !count;
  Alcotest.(check (float 0.)) "clock advanced to horizon" 5.5 (Engine.now e);
  Engine.run e;
  Alcotest.(check int) "rest run later" 10 !count

let test_engine_max_events () =
  let e = Engine.create () in
  let rec reschedule e = ignore (Engine.schedule e ~delay:1. reschedule) in
  reschedule e;
  Engine.run ~max_events:100 e;
  Alcotest.(check int) "stopped at budget" 100 (Engine.events_processed e)

let test_engine_no_past_scheduling () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:5. (fun _ -> ()));
  Engine.run e;
  Alcotest.(check bool) "negative absolute time rejected" true
    (try
       ignore (Engine.schedule_at e ~time:1. (fun _ -> ()));
       false
     with Invalid_argument _ -> true)

(* M/M/1 queue built directly on the engine: arrivals Poisson(lambda),
   service exp(mu). Mean customers in system must match rho/(1-rho). *)
let test_mm1_against_theory () =
  let lambda = 0.7 and mu = 1.0 in
  let e = Engine.create () in
  let g = Rng.create 99 in
  let in_system = ref 0 in
  let area = ref 0. and last = ref 0. in
  let advance now =
    area := !area +. (Float.of_int !in_system *. (now -. !last));
    last := now
  in
  let rec depart e =
    advance (Engine.now e);
    in_system := !in_system - 1;
    if !in_system > 0 then
      ignore (Engine.schedule e ~delay:(Rng.exponential g (1. /. mu)) depart)
  in
  let rec arrive e =
    advance (Engine.now e);
    in_system := !in_system + 1;
    if !in_system = 1 then
      ignore (Engine.schedule e ~delay:(Rng.exponential g (1. /. mu)) depart);
    ignore (Engine.schedule e ~delay:(Rng.exponential g (1. /. lambda)) arrive)
  in
  ignore (Engine.schedule e ~delay:(Rng.exponential g (1. /. lambda)) arrive);
  Engine.run ~until:200_000. e;
  advance (Engine.now e);
  let mean_n = !area /. Engine.now e in
  let rho = lambda /. mu in
  let expected =
    (rho /. (1. -. rho)
    [@lint.allow
      "unguarded-division"
        "closed-form M/M/1 reference with fixed test parameters lambda < mu, so rho \
         is a constant strictly below 1"])
  in
  if Float.abs (mean_n -. expected) > 0.12 *. expected then
    Alcotest.failf "M/M/1 mean customers %g, theory %g" mean_n expected

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list (float_range 0. 1000.))
    (fun times ->
      let h = Heap.create () in
      List.iter (fun t -> Heap.push h ~time:t ()) times;
      let out = ref [] in
      let rec drain () =
        match Heap.pop h with
        | Some (t, ()) ->
          out := t :: !out;
          drain ()
        | None -> ()
      in
      drain ();
      let popped = List.rev !out in
      popped = List.sort compare times)

(* Repeated drains (the push/pop-to-empty churn the retention policy is
   for) must stay correct across recycled backing arrays, ties included. *)
let test_heap_drain_churn () =
  let h = Heap.create () in
  for round = 0 to 99 do
    for i = 0 to 31 do
      Heap.push h ~time:(Float.of_int (i mod 4)) ((round * 32) + i)
    done;
    let popped = ref 0 in
    let last_time = ref neg_infinity in
    let last_id = ref (-1) in
    let continue = ref true in
    while !continue do
      match Heap.pop h with
      | None -> continue := false
      | Some (t, id) ->
        incr popped;
        if t < !last_time then Alcotest.fail "order violated across churn";
        (* Equal times must come back in insertion order even after the
           arrays have been dropped and re-grown between rounds. *)
        if Float.equal t !last_time && id <= !last_id then
          Alcotest.fail "tie order violated across churn";
        last_time := t;
        last_id := id
    done;
    Alcotest.(check int) "drained the round" 32 !popped
  done;
  Alcotest.(check bool) "empty after churn" true (Heap.is_empty h)

let suite =
  [
    Alcotest.test_case "heap ordering" `Quick test_heap_ordering;
    Alcotest.test_case "heap FIFO tie-breaking" `Quick test_heap_fifo_ties;
    Alcotest.test_case "heap interleaved push/pop" `Quick test_heap_interleaved;
    Alcotest.test_case "heap random stress" `Quick test_heap_many_random;
    Alcotest.test_case "heap rejects non-finite time" `Quick test_heap_rejects_nan;
    Alcotest.test_case "heap releases popped payloads" `Quick
      test_heap_releases_popped_payloads;
    Alcotest.test_case "heap clear releases payloads" `Quick
      test_heap_clear_releases_payloads;
    Alcotest.test_case "engine ordering and clock" `Quick test_engine_order_and_clock;
    Alcotest.test_case "engine cascading events" `Quick test_engine_cascading;
    Alcotest.test_case "engine cancellation" `Quick test_engine_cancel;
    Alcotest.test_case "engine run until horizon" `Quick test_engine_until;
    Alcotest.test_case "engine event budget" `Quick test_engine_max_events;
    Alcotest.test_case "engine rejects past scheduling" `Quick test_engine_no_past_scheduling;
    Alcotest.test_case "M/M/1 against theory" `Slow test_mm1_against_theory;
    Alcotest.test_case "heap drain churn" `Quick test_heap_drain_churn;
    QCheck_alcotest.to_alcotest prop_heap_sorts;
  ]
