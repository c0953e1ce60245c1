module Fixed_point = Lopc_numerics.Fixed_point
module Solver_probe = Lopc_numerics.Solver_probe

type node_spec = { work : float option; visits : float array }

type t = {
  params : Params.t;
  nodes : node_spec array;
  protocol_processor : bool;
}

type node_solution = {
  rq : float;
  ry : float;
  rw : float;
  qq : float;
  qy : float;
  uq : float;
  uy : float;
}

type solution = {
  cycle_times : float array;
  throughputs : float array;
  node_solutions : node_solution array;
  system_throughput : float;
}

let validate t =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let p = Array.length t.nodes in
  match Params.validate t.params with
  | Error reason -> Error reason
  | Ok _ ->
    if t.params.Params.p <> p then
      err "params.p = %d but %d nodes specified" t.params.Params.p p
    else begin
      let problem = ref None in
      let has_thread = ref false in
      Array.iteri
        (fun c spec ->
          if Array.length spec.visits <> p then
            problem := Some (Printf.sprintf "node %d visit vector has length %d, expected %d" c (Array.length spec.visits) p);
          Array.iter
            (fun v ->
              if v < 0. || not (Float.is_finite v) then
                problem := Some "negative or non-finite visit ratio")
            spec.visits;
          match spec.work with
          | None -> ()
          | Some w ->
            has_thread := true;
            if w < 0. || not (Float.is_finite w) then
              problem := Some (Printf.sprintf "node %d has invalid work" c);
            let hops = Array.fold_left ( +. ) 0. spec.visits in
            if hops <= 0. then
              problem := Some (Printf.sprintf "thread node %d never sends a request" c))
        t.nodes;
      if not !has_thread then problem := Some "no node runs a thread";
      match !problem with Some reason -> Error reason | None -> Ok t
    end

(* The evaluation kernel of one solve. The visit matrix is stored twice
   in compressed form, both times holding only the thread rows [c] with
   [V(c,k) > 0]: by target node ([into_*].(k), sources [c] in increasing
   order) for the arrival rates [Λk], and by thread ([out_*].(c), targets
   [k] in increasing order) for the request residences a cycle collects.
   [evaluate] writes every per-node quantity of an iterate into the float
   arrays below, which are allocated once per solve; plain loops with
   local accumulators keep every intermediate float unboxed.

   Against the dense sums over the whole matrix this is bit-identical:
   the summation order is the same, and a skipped term is [0 · x] with
   [x] finite (a zero visit ratio, or a pure server whose throughput
   stays [+0.]), which adds exactly nothing to a sum that starts at [+0.]
   and so never holds [-0.]. *)
type kernel = {
  st : float;
  so : float;
  beta : float;
  max_queue : float;
  protocol_processor : bool;
  work : float array;  (* [nan] for pure servers *)
  into_node : int array array;
  into_visits : float array array;
  out_node : int array array;
  out_visits : float array array;
  rq : float array;
  ry : float array;
  rw : float array;
  qq : float array;
  qy : float array;
  uq : float array;
  uy : float array;
}

(* Row [i] of [m] (of its transpose when [transpose]) compressed to the
   [j] with a positive entry, in increasing order, and those entries. One
   small array per row keeps the structure in the minor heap, where it
   dies with the solve. *)
let compress ~transpose m =
  let n = Array.length m in
  let row_nodes = Array.make n 0 and row_visits = Array.make n 0. in
  let nodes = Array.make n [||] and visits = Array.make n [||] in
  for i = 0 to n - 1 do
    let count = ref 0 in
    for j = 0 to n - 1 do
      let v = if transpose then m.(j).(i) else m.(i).(j) in
      if v > 0. then begin
        row_nodes.(!count) <- j;
        row_visits.(!count) <- v;
        incr count
      end
    done;
    nodes.(i) <- Array.sub row_nodes 0 !count;
    visits.(i) <- Array.sub row_visits 0 !count
  done;
  (nodes, visits)

let kernel t =
  let p = Array.length t.nodes in
  let { Params.st; so; c2; _ } = t.params in
  let work =
    Array.map (fun (spec : node_spec) -> Option.value spec.work ~default:Float.nan) t.nodes
  in
  let thread_count =
    Array.fold_left
      (fun acc (spec : node_spec) -> if Option.is_none spec.work then acc else acc + 1)
      0 t.nodes
  in
  let rows =
    Array.map
      (fun (spec : node_spec) -> if Option.is_none spec.work then Array.make p 0. else spec.visits)
      t.nodes
  in
  let into_node, into_visits = compress ~transpose:true rows in
  let out_node, out_visits = compress ~transpose:false rows in
  let node_array () = Array.make p 0. in
  {
    st;
    so;
    beta = (c2 -. 1.) /. 2.;
    (* In a closed network a node can never hold more messages than there
       are threads (each thread has at most one request in flight), so
       queue lengths are clamped to that physical bound; this keeps the
       outer fixed-point iteration stable when an intermediate iterate
       saturates a node. *)
    max_queue = Float.of_int thread_count;
    protocol_processor = t.protocol_processor;
    work;
    into_node;
    into_visits;
    out_node;
    out_visits;
    rq = node_array ();
    ry = node_array ();
    rw = node_array ();
    qq = node_array ();
    qy = node_array ();
    uq = node_array ();
    uy = node_array ();
  }

(* Every per-node quantity for the throughput vector [x]. Per node, with
   request-handler utilization [a = So·Λk] and reply-handler utilization
   [b = So·Xk], the queue lengths solve (Bard + Eq 5.8 correction)
     Qq = a·(1 + Qq + Qy + β(a+b))
     Qy = b·(1 + Qq + β·a)
   exactly as a 2×2 system, clamped to [max_queue]. *)
let evaluate k x =
  let { so; beta; max_queue; _ } = k in
  for n = 0 to Array.length x - 1 do
    let sources = k.into_node.(n) and visits = k.into_visits.(n) in
    let lambda = ref 0. in
    for e = 0 to Array.length sources - 1 do
      lambda := !lambda +. (visits.(e) *. x.(sources.(e)))
    done;
    let a = so *. !lambda in
    let b = so *. x.(n) in
    let denom = 1. -. a -. (a *. b) in
    if denom <= 1e-9 then begin
      k.qq.(n) <- max_queue;
      k.qy.(n) <- Float.min max_queue (b *. (1. +. max_queue +. (beta *. a)))
    end
    else begin
      let qq = a *. (1. +. b +. (beta *. (a +. b)) +. (beta *. a *. b)) /. denom in
      let qq = Float.max 0. (Float.min qq max_queue) in
      k.qq.(n) <- qq;
      k.qy.(n) <- Float.max 0. (Float.min (b *. (1. +. qq +. (beta *. a))) max_queue)
    end;
    let qq = k.qq.(n) in
    k.rq.(n) <- so *. (1. +. qq +. k.qy.(n) +. (beta *. (a +. b)));
    k.ry.(n) <- so *. (1. +. qq +. (beta *. a));
    let w = k.work.(n) in
    k.rw.(n) <-
      (if Float.is_nan w || k.protocol_processor then w
       else (w +. (so *. qq)) /. Float.max 1e-6 (1. -. a));
    k.uq.(n) <- a;
    k.uy.(n) <- b
  done

(* Cycle time [Rc] of every thread node ([nan] for pure servers) from the
   last [evaluate], written into [r]. *)
let fill_cycle_times k r =
  let st = k.st in
  for c = 0 to Array.length r - 1 do
    if Float.is_nan k.work.(c) then r.(c) <- Float.nan
    else begin
      let targets = k.out_node.(c) and visits = k.out_visits.(c) in
      let acc = ref 0. in
      for e = 0 to Array.length targets - 1 do
        acc := !acc +. (visits.(e) *. (st +. k.rq.(targets.(e))))
      done;
      r.(c) <- k.rw.(c) +. !acc +. st +. k.ry.(c)
    end
  done

(* The node with the most loaded request handlers after the last
   [evaluate] (the first such node; a [nan] utilization wins) — the
   probe's [hottest] and the saturation diagnosis agree on it. *)
let hottest k =
  let best = ref 0 in
  for n = 1 to Array.length k.uq - 1 do
    if not (k.uq.(!best) >= k.uq.(n)) then best := n
  done;
  (!best, k.uq.(!best))

let solve_status ?probe ?budget ?(tol = 1e-12) ?(max_iter = 200_000) t =
  (match validate t with
  | Ok _ -> ()
  | Error reason -> invalid_arg ("General: " ^ reason));
  let p = Array.length t.nodes in
  let k = kernel t in
  let step x =
    evaluate k x;
    let fx = Array.make p 0. in
    fill_cycle_times k fx;
    for c = 0 to p - 1 do
      fx.(c) <- (if Float.is_nan k.work.(c) then 0. else 1. /. fx.(c))
    done;
    fx
  in
  let x0 =
    Array.map
      (fun (spec : node_spec) ->
        match spec.work with
        | None -> 0.
        | Some w ->
          (* Contention-free starting point. *)
          let hops = Array.fold_left ( +. ) 0. spec.visits in
          1. /. (w +. (hops *. (k.st +. k.so)) +. k.st +. k.so))
      t.nodes
  in
  let fp_probe =
    match probe with
    | None -> None
    | Some pr ->
      Some
        (fun (ev : Solver_probe.event) ->
          evaluate k ev.Solver_probe.iterate;
          pr { ev with Solver_probe.hottest = Some (hottest k) })
  in
  let outcome, status =
    Fixed_point.solve_vector_status ?probe:fp_probe ?budget ~damping:0.1 ~tol ~max_iter
      ~f:step x0
  in
  let x = outcome.Fixed_point.value in
  match status with
  | Fixed_point.Converged _ ->
    evaluate k x;
    let cycle_times = Array.make p 0. in
    fill_cycle_times k cycle_times;
    let node_solutions =
      Array.init p (fun n ->
          {
            rq = k.rq.(n);
            ry = k.ry.(n);
            rw = k.rw.(n);
            qq = k.qq.(n);
            qy = k.qy.(n);
            uq = k.uq.(n);
            uy = k.uy.(n);
          })
    in
    ( Some
        {
          cycle_times;
          throughputs = x;
          node_solutions;
          system_throughput = Array.fold_left ( +. ) 0. x;
        },
      status )
  (* A budget stop is the caller's allowance ending, not a property of the
     iterate — report it as-is rather than re-diagnosing saturation. *)
  | Fixed_point.Exhausted _ -> (None, status)
  | _ ->
    (* Diagnose the stall from the last iterate: a node whose request
       handlers are driven to (or past) full utilization has no finite
       fixed point — report it as saturation with the culprit node. *)
    evaluate k x;
    let station, utilization = hottest k in
    if utilization >= 1. -. 1e-9 then (None, Fixed_point.Saturated { station; utilization })
    else (None, status)

let solve ?probe ?tol ?max_iter t =
  match solve_status ?probe ?tol ?max_iter t with
  | Some s, _ -> s
  | None, status ->
    raise (Fixed_point.Diverged ("General: " ^ Fixed_point.status_to_string status))

let homogeneous_all_to_all (params : Params.t) ~w =
  let p = params.p in
  if p < 2 then invalid_arg "General.homogeneous_all_to_all: need P >= 2";
  let v = 1. /. Float.of_int (p - 1) in
  {
    params;
    protocol_processor = false;
    nodes =
      Array.init p (fun c ->
          {
            work = Some w;
            visits = Array.init p (fun k -> if k = c then 0. else v);
          });
  }

let client_server (params : Params.t) ~w ~servers =
  let p = params.p in
  if servers <= 0 || servers >= p then
    invalid_arg "General.client_server: need 0 < servers < P";
  let v = 1. /. Float.of_int servers in
  {
    params;
    protocol_processor = false;
    nodes =
      Array.init p (fun c ->
          if c < servers then { work = None; visits = Array.make p 0. }
          else { work = Some w; visits = Array.init p (fun k -> if k < servers then v else 0.) });
  }
