(* Minimal JSON: just enough for the repository's artifacts (witness
   files, checkpoints).  Deterministic printing, strict parsing. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- printing --- *)

let escape b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let to_string ?(indent = 2) v =
  let b = Buffer.create 256 in
  let pad n = if indent > 0 then Buffer.add_string b (String.make (n * indent) ' ') in
  let nl () = if indent > 0 then Buffer.add_char b '\n' in
  let rec go depth = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f ->
        (* Round-trippable and JSON-legal (no "nan"/"inf"; no bare "1."). *)
        if Float.is_integer f && Float.abs f < 1e15 then
          Buffer.add_string b (Printf.sprintf "%.1f" f)
        else Buffer.add_string b (Printf.sprintf "%.17g" f)
    | String s -> escape b s
    | List [] -> Buffer.add_string b "[]"
    | List xs ->
        Buffer.add_char b '[';
        nl ();
        List.iteri
          (fun i x ->
            if i > 0 then begin
              Buffer.add_char b ',';
              nl ()
            end;
            pad (depth + 1);
            go (depth + 1) x)
          xs;
        nl ();
        pad depth;
        Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj fields ->
        Buffer.add_char b '{';
        nl ();
        List.iteri
          (fun i (k, x) ->
            if i > 0 then begin
              Buffer.add_char b ',';
              nl ()
            end;
            pad (depth + 1);
            escape b k;
            Buffer.add_string b (if indent > 0 then ": " else ":");
            go (depth + 1) x)
          fields;
        nl ();
        pad depth;
        Buffer.add_char b '}'
  in
  go 0 v;
  Buffer.contents b

(* --- parsing --- *)

exception Bad of string * int

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let fail msg = raise (Bad (msg, !pos)) in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char b '"'; incr pos
               | '\\' -> Buffer.add_char b '\\'; incr pos
               | '/' -> Buffer.add_char b '/'; incr pos
               | 'n' -> Buffer.add_char b '\n'; incr pos
               | 'r' -> Buffer.add_char b '\r'; incr pos
               | 't' -> Buffer.add_char b '\t'; incr pos
               | 'b' -> Buffer.add_char b '\b'; incr pos
               | 'f' -> Buffer.add_char b '\012'; incr pos
               | 'u' ->
                   if !pos + 4 >= n then fail "bad \\u escape";
                   let hex = String.sub s (!pos + 1) 4 in
                   let code =
                     try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape"
                   in
                   (* Artifacts only escape control characters; decode the
                      Latin-1 range and reject the rest. *)
                   if code < 0x100 then Buffer.add_char b (Char.chr code)
                   else fail "unsupported \\u escape";
                   pos := !pos + 5
               | _ -> fail "bad escape");
            go ()
        | c ->
            Buffer.add_char b c;
            incr pos;
            go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < n && is_num s.[!pos] do
      incr pos
    done;
    let tok = String.sub s start (!pos - start) in
    if String.contains tok '.' || String.contains tok 'e' || String.contains tok 'E' then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec fields_loop () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                fields_loop ()
            | Some '}' -> incr pos
            | _ -> fail "expected ',' or '}'"
          in
          fields_loop ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          List []
        end
        else begin
          let items = ref [] in
          let rec items_loop () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                items_loop ()
            | Some ']' -> incr pos
            | _ -> fail "expected ',' or ']'"
          in
          items_loop ();
          List (List.rev !items)
        end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (msg, at) -> Error (Printf.sprintf "%s at offset %d" msg at)

let parse_exn s =
  match parse s with Ok v -> v | Error msg -> invalid_arg ("Json.parse: " ^ msg)

(* --- files --- *)

(* Write-temp-then-rename: the rename is atomic on POSIX, so [file] is
   either the complete old document or the complete new one, never a
   truncated write.  [close_out] (not [close_out_noerr]) so a failed
   final flush is an error rather than a short file renamed into place;
   on any failure the temporary file is removed. *)
let save ~file v =
  let tmp = file ^ ".tmp" in
  let oc = open_out_bin tmp in
  try
    output_string oc (to_string v);
    output_char oc '\n';
    close_out oc;
    Sys.rename tmp file
  with e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let load ~file = parse_exn (In_channel.with_open_bin file In_channel.input_all)

(* --- accessors --- *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let field k v =
  match member k v with
  | Some x -> x
  | None -> invalid_arg (Printf.sprintf "Json: missing field %S" k)

let to_int = function
  | Int i -> i
  | _ -> invalid_arg "Json.to_int"

let to_float = function Float f -> f | Int i -> float_of_int i | _ -> invalid_arg "Json.to_float"
let to_bool = function Bool b -> b | _ -> invalid_arg "Json.to_bool"
let to_str = function String s -> s | _ -> invalid_arg "Json.to_str"
let to_list = function List xs -> xs | _ -> invalid_arg "Json.to_list"
