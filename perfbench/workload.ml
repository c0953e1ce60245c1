(* What every workload provides to the runner in lopcbench.ml. *)

type size =
  | Full  (** The size BENCHMARK.json measures. *)
  | Tiny  (** A few operations of the same kind, for the smoke test. *)

type tally = { attempted : int; failed : int }

let tally_add a b =
  { attempted = a.attempted + b.attempted; failed = a.failed + b.failed }

let no_checks = { attempted = 0; failed = 0 }

(* One check of one operation's output. *)
let check ok = { attempted = 1; failed = (if ok then 0 else 1) }

type instance = {
  pass : unit -> unit;
      (** One timed pass: the work that produces the checked outputs. *)
  check : unit -> tally;
      (** Checks the outputs of the last pass or traced pass. *)
  traced_pass : Span.t -> parent:int -> unit;
      (** [pass], with a span around every call into a library layer. *)
  layers : Span.t -> parent:int -> (string * float) list * tally;
      (** The per-layer metrics this workload exercises, measured by
          replaying its public calls from outside the library, and the
          checks of any outputs it made on the way. *)
}

type t = {
  name : string;
  setup : size:size -> seed:int -> perturb:bool -> nproc:int -> instance;
      (** Builds the inputs from [seed]. With [perturb], every reference
          the checks compare against is altered so that each check must
          fail. *)
}

(* Wall seconds of [f ()]. *)
let time f =
  let t0 = Span.now () in
  let r = f () in
  (Span.seconds_between t0 (Span.now ()), r)

(* A pass seen as batches of independent tasks, run one batch after the
   other: the per-task times give the repro.* metrics. *)
type task_times = {
  batches : float list list;  (* seconds per task, per batch *)
  wall : float;  (* seconds for the whole pass *)
  jobs : int;  (* workers the tasks ran on *)
}

(* The task count, the summed task time (work), the sum over batches of
   the longest task (span) and work / (jobs * wall), medians over passes. *)
let repro_metrics = function
  | [] -> []
  | first :: _ as passes ->
    let sum = List.fold_left ( +. ) 0. in
    let work p = sum (List.map sum p.batches) in
    let span p = sum (List.map (List.fold_left Float.max 0.) p.batches) in
    let med f = Stat.median (List.map f passes) in
    let work_s = med work in
    [
      ("repro.tasks", Float.of_int (List.length (List.concat first.batches)));
      ("repro.work_s", work_s);
      ("repro.span_s", med span);
      ("repro.parallel_efficiency", work_s /. med (fun p -> Float.of_int p.jobs *. p.wall));
    ]

let bytes_per_word = Float.of_int (Sys.word_size / 8)

(* Words allocated by this domain since the program started. The major
   heap's counters are only brought up to date at the end of a major
   slice, so a full major collection comes first; it promotes as many
   words as it adds to [major_words], which leaves the sum unchanged. *)
let allocated_words () =
  Gc.full_major ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
