module Budget = Lopc_robust.Budget

type outcome = { value : float array; iterations : int; residual : float }

type status =
  | Converged of { iters : int }
  | Saturated of { station : int; utilization : float }
  | Diverged of { iters : int; residual : float }
  | Exhausted of { iters : int; reason : Budget.stop_reason }

(* The raising entry points below predate the structured [status] type and
   are kept unchanged; type-directed disambiguation separates the exception
   from the [status] constructor of the same name. *)
exception Diverged of string

let is_converged = function
  | Converged _ -> true
  | Saturated _ | Diverged _ | Exhausted _ -> false

let pp_status ppf = function
  | Converged { iters } -> Format.fprintf ppf "converged in %d iterations" iters
  | Saturated { station; utilization } ->
      Format.fprintf ppf "saturated at station %d (utilization %.4f)" station utilization
  | Diverged { iters; residual } ->
      Format.fprintf ppf "diverged after %d iterations (residual %g)" iters residual
  | Exhausted { iters; reason } ->
      Format.fprintf ppf "stopped after %d iterations: %s" iters
        (Budget.reason_to_string reason)

let status_to_string s = Format.asprintf "%a" pp_status s

(* Shared core for the scalar solvers: returns the last iterate, the
   structured status, and a human-readable reason used by the raising
   wrapper. *)
let scalar_impl ?probe ?budget ~damping ~tol ~max_iter ~f ~name x0 =
  if damping <= 0. || damping > 1. then invalid_arg (name ^ ": damping");
  let x = ref x0 in
  let answer : (float * status * string) option ref = ref None in
  (try
     for iter = 1 to max_iter do
       (match budget with
       | None -> ()
       | Some b -> (
         match Budget.check b with
         | None -> ()
         | Some reason ->
           answer :=
             Some
               ( !x,
                 Exhausted { iters = iter - 1; reason },
                 "scalar iteration stopped: " ^ Budget.reason_to_string reason );
           raise Exit));
       let fx = f !x in
       if not (Float.is_finite fx) then begin
         answer :=
           Some
             ( !x,
               Diverged { iters = iter; residual = Float.nan },
               "scalar iteration left the finite domain" );
         raise Exit
       end;
       let residual = Float.abs (fx -. !x) in
       (match probe with
       | None -> ()
       | Some p ->
         p
           {
             Solver_probe.iter;
             residual;
             damping;
             iterate = [| !x |];
             hottest = None;
           });
       if residual <= tol *. Float.max 1. (Float.abs !x) then begin
         answer := Some (fx, Converged { iters = iter }, "");
         raise Exit
       end;
       x := ((1. -. damping) *. !x) +. (damping *. fx)
     done
   with Exit -> ());
  match !answer with
  | Some r -> r
  | None ->
      let residual = Float.abs (f !x -. !x) in
      ( !x,
        Diverged { iters = max_iter; residual },
        "scalar iteration budget exhausted" )

let solve_scalar_status ?probe ?budget ?(damping = 1.) ?(tol = 1e-10)
    ?(max_iter = 10_000) ~f x0 =
  let x, status, _ =
    scalar_impl ?probe ?budget ~damping ~tol ~max_iter ~f
      ~name:"Fixed_point.solve_scalar_status" x0
  in
  (x, status)

let solve_scalar ?(damping = 1.) ?(tol = 1e-10) ?(max_iter = 10_000) ~f x0 =
  match scalar_impl ~damping ~tol ~max_iter ~f ~name:"Fixed_point.solve_scalar" x0 with
  | x, Converged _, _ -> x
  | _, _, reason -> raise (Diverged reason)

(* The vector solvers' reductions are plain loops so that no float is
   boxed per element. *)
let max_norm_diff a b =
  let m = ref 0. in
  for i = 0 to Array.length a - 1 do
    m := Float.max !m (Float.abs (a.(i) -. b.(i)))
  done;
  !m

let all_finite a =
  let ok = ref true in
  for i = 0 to Array.length a - 1 do
    if not (Float.is_finite a.(i)) then ok := false
  done;
  !ok

(* Shared core for the vector solvers, mirroring [scalar_impl]. *)
let vector_impl ?probe ?budget ~damping ~tol ~max_iter ~f ~name x0 =
  if damping <= 0. || damping > 1. then invalid_arg (name ^ ": damping");
  let n = Array.length x0 in
  let x = ref (Array.copy x0) in
  let result : (outcome * status * string) option ref = ref None in
  (try
     for iter = 1 to max_iter do
       (match budget with
       | None -> ()
       | Some b -> (
         match Budget.check b with
         | None -> ()
         | Some reason ->
           result :=
             Some
               ( { value = !x; iterations = iter - 1; residual = Float.nan },
                 Exhausted { iters = iter - 1; reason },
                 "vector iteration stopped: " ^ Budget.reason_to_string reason );
           raise Exit));
       let fx = f !x in
       if Array.length fx <> n then begin
         result :=
           Some
             ( { value = !x; iterations = iter; residual = Float.nan },
               Diverged { iters = iter; residual = Float.nan },
               "vector map changed dimension" );
         raise Exit
       end;
       if not (all_finite fx) then begin
         result :=
           Some
             ( { value = !x; iterations = iter; residual = Float.nan },
               Diverged { iters = iter; residual = Float.nan },
               "vector iteration left the finite domain" );
         raise Exit
       end;
       let residual = max_norm_diff fx !x in
       (match probe with
       | None -> ()
       | Some p ->
         p
           {
             Solver_probe.iter;
             residual;
             damping;
             iterate = Array.copy !x;
             hottest = None;
           });
       let xs = !x in
       let scale = ref 1. in
       for i = 0 to n - 1 do
         scale := Float.max !scale (Float.abs xs.(i))
       done;
       if residual <= tol *. !scale then begin
         result :=
           Some
             ( { value = fx; iterations = iter; residual },
               Converged { iters = iter },
               "" );
         raise Exit
       end;
       let next = Array.make n 0. in
       for i = 0 to n - 1 do
         next.(i) <- ((1. -. damping) *. xs.(i)) +. (damping *. fx.(i))
       done;
       x := next
     done
   with Exit -> ());
  match !result with
  | Some r -> r
  | None ->
      let fx = f !x in
      let residual =
        if Array.length fx = n && all_finite fx then
          max_norm_diff fx !x
        else Float.nan
      in
      ( { value = !x; iterations = max_iter; residual },
        Diverged { iters = max_iter; residual },
        "vector iteration budget exhausted" )

let solve_vector_status ?probe ?budget ?(damping = 1.) ?(tol = 1e-10)
    ?(max_iter = 10_000) ~f x0 =
  let outcome, status, _ =
    vector_impl ?probe ?budget ~damping ~tol ~max_iter ~f
      ~name:"Fixed_point.solve_vector_status" x0
  in
  (outcome, status)

let solve_vector ?(damping = 1.) ?(tol = 1e-10) ?(max_iter = 10_000) ~f x0 =
  match vector_impl ~damping ~tol ~max_iter ~f ~name:"Fixed_point.solve_vector" x0 with
  | outcome, Converged _, _ -> outcome
  | _, _, reason -> raise (Diverged reason)
