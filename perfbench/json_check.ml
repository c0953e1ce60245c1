(* A strict JSON syntax check (RFC 8259 grammar), used by the smoke run to
   confirm that the traced run wrote a loadable trace file. *)

exception Bad of int * string

let validate s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let bad what = raise (Bad (!pos, what)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      incr pos;
      skip_ws ()
    | _ -> ()
  in
  let expect c = if peek () = Some c then incr pos else bad (Printf.sprintf "expected %C" c) in
  let literal word =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then
      pos := !pos + String.length word
    else bad ("expected " ^ word)
  in
  let digits () =
    let start = !pos in
    while match peek () with Some '0' .. '9' -> true | _ -> false do
      incr pos
    done;
    if !pos = start then bad "expected a digit"
  in
  let number () =
    if peek () = Some '-' then incr pos;
    (match peek () with Some '0' -> incr pos | _ -> digits ());
    if peek () = Some '.' then begin
      incr pos;
      digits ()
    end;
    match peek () with
    | Some ('e' | 'E') ->
      incr pos;
      (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
      digits ()
    | _ -> ()
  in
  let string_ () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> bad "unterminated string"
      | Some '"' -> incr pos
      | Some '\\' ->
        incr pos;
        (match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> incr pos
        | Some 'u' ->
          incr pos;
          for _ = 1 to 4 do
            match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> incr pos
            | _ -> bad "bad \\u escape"
          done
        | _ -> bad "bad escape");
        go ()
      | Some c when Char.code c < 0x20 -> bad "control character in string"
      | Some _ ->
        incr pos;
        go ()
    in
    go ()
  in
  let rec value () =
    skip_ws ();
    (match peek () with
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then incr pos
      else
        let rec members () =
          skip_ws ();
          string_ ();
          skip_ws ();
          expect ':';
          value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            members ()
          | _ -> expect '}'
        in
        members ()
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then incr pos
      else
        let rec elements () =
          value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            elements ()
          | _ -> expect ']'
        in
        elements ()
    | Some '"' -> string_ ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | _ -> number ());
    skip_ws ()
  in
  try
    value ();
    if !pos <> n then bad "trailing characters";
    Ok ()
  with Bad (at, what) -> Error (Printf.sprintf "invalid JSON at byte %d: %s" at what)

let file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> validate s
