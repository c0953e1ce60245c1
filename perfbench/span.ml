(* Spans of the traced run. Each span has a name, start, end and the id of
   the span that caused it; they are kept in memory and written once, as
   Chrome trace JSON, when the run ends. Spans are recorded by the
   benchmark around its own calls into each library layer, so the library
   itself carries no timing code. *)

type span = {
  id : int;
  name : string;
  parent : int;  (* 0 for a root span *)
  tid : int;  (* domain that ran the span *)
  start_ns : int64;
  end_ns : int64;
}

type t = { mutable spans : span list; mutable next : int; origin : int64 }

let now () = Monotonic_clock.now ()

let seconds_between a b = Int64.to_float (Int64.sub b a) *. 1e-9

let create () = { spans = []; next = 1; origin = now () }

(* Records a span measured elsewhere (e.g. on a pool worker, which must not
   touch [t]) and returns its id. Not safe to call from several domains. *)
let add t ?(parent = 0) ?(tid = 0) name ~start_ns ~end_ns =
  let id = t.next in
  t.next <- id + 1;
  t.spans <- { id; name; parent; tid; start_ns; end_ns } :: t.spans;
  id

(* [enter t ~parent name f] runs [f id] inside a new span and returns its
   result; [id] names the span for children opened by [f]. *)
let enter t ?(parent = 0) name f =
  let id = t.next in
  t.next <- id + 1;
  let start_ns = now () in
  let result = f id in
  let end_ns = now () in
  t.spans <- { id; name; parent; tid = 0; start_ns; end_ns } :: t.spans;
  result

let count t = List.length t.spans

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome [trace_event] JSON: one complete ("X") event per span, in start
   order, with timestamps in microseconds since the recorder was created.
   The span and parent ids ride in [args] so self time can be recovered. *)
let write_chrome t ~path ~meta =
  let spans =
    List.sort (fun a b -> Int64.compare a.start_ns b.start_ns) t.spans
  in
  let us ns = Int64.to_float (Int64.sub ns t.origin) /. 1e3 in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\
         \"args\":{\"id\":%d,\"parent\":%d}}"
        (json_string s.name) s.tid (us s.start_ns)
        (Int64.to_float (Int64.sub s.end_ns s.start_ns) /. 1e3)
        s.id s.parent)
    spans;
  output_string oc "],\n\"displayTimeUnit\":\"ms\",\"otherData\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then output_string oc ",";
      Printf.fprintf oc "%s:%s" (json_string k) (json_string v))
    meta;
  output_string oc "}}\n";
  close_out oc
