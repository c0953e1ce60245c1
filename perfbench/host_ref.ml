(* The host reference: a fixed amount of work, written here and calling
   nothing in lib/, that the untraced run times next to every pass. Its
   time moves only with the host, so dividing a pass by it cancels the
   host's speed but not the program's.

   On a shared host the speed of memory-bound OCaml code moves by up to
   1.7x over periods of seconds to minutes (see STEADINESS.md). The
   reference is a small discrete-event loop shaped like the simulator's:
   a binary heap of freshly allocated event records, per-node FIFOs,
   xorshift draws and a log per event. Over the probes recorded in
   STEADINESS.md its time rose by 1.35x where the simulator passes rose
   by 1.55x, so the correction removes most, not all, of a change of
   host speed.

   Corrected seconds are [raw *. nominal_s /. reference]: a sample's time
   on a host where the reference takes [nominal_s]. *)

let nominal_s = 0.05

type event = { time : float; node : int; hops : int }

let nodes = 32
let events = 150_000

(* Runs the loop and returns a value that depends on all of it. *)
let run () =
  let state = ref 0x2545F4914F6CDD1D in
  let uniform () =
    let x = !state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    state := x;
    (Float.of_int (x land 0xFFFFFF) +. 0.5) /. 16777216.
  in
  let heap = Array.make (2 * nodes) { time = 0.; node = 0; hops = 0 } in
  let size = ref 0 in
  let push e =
    let i = ref !size in
    incr size;
    while !i > 0 && heap.((!i - 1) / 2).time > e.time do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- e
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    let last = heap.(!size) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= !size then sifting := false
      else begin
        let c = if l + 1 < !size && heap.(l + 1).time < heap.(l).time then l + 1 else l in
        if heap.(c).time < last.time then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else sifting := false
      end
    done;
    heap.(!i) <- last;
    top
  in
  let fifos = Array.init nodes (fun _ -> Queue.create ()) in
  for node = 0 to nodes - 1 do
    push { time = uniform () *. 100.; node; hops = 0 }
  done;
  let acc = ref 0. in
  for _ = 1 to events do
    let e = pop () in
    let dest = Float.to_int (uniform () *. Float.of_int nodes) mod nodes in
    Queue.push (e.time, e.hops) fifos.(dest);
    if Queue.length fifos.(dest) > 8 then acc := !acc +. fst (Queue.pop fifos.(dest));
    push { time = e.time -. (log (uniform ()) *. 100.); node = dest; hops = e.hops + 1 }
  done;
  !acc

(* Seconds one run of the reference takes now. *)
let seconds () =
  let t0 = Span.now () in
  ignore (Sys.opaque_identity (run ()));
  Span.seconds_between t0 (Span.now ())
