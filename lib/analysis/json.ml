module E = Lph_util.Error

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* printing *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* The shortest of %.15g / %.17g that reads back as [f], with a
   fraction or exponent kept so it parses back as a [Float]; JSON has no
   literal for nan or the infinities. *)
let float_literal f =
  if not (Float.is_finite f) then "null"
  else
    let s = Printf.sprintf "%.15g" f in
    let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
    if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let rec print ~indent ~level buf v =
  let nl pad =
    match indent with
    | None -> ()
    | Some step ->
        Buffer.add_char buf '\n';
        Buffer.add_string buf (String.make (step * pad) ' ')
  in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (float_literal f)
  | String s -> escape_to buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          nl (level + 1);
          print ~indent ~level:(level + 1) buf item)
        items;
      nl level;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char buf ',';
          nl (level + 1);
          escape_to buf k;
          Buffer.add_char buf ':';
          if indent <> None then Buffer.add_char buf ' ';
          print ~indent ~level:(level + 1) buf item)
        fields;
      nl level;
      Buffer.add_char buf '}'

let render indent v =
  let buf = Buffer.create 256 in
  print ~indent ~level:0 buf v;
  Buffer.contents buf

let to_string v = render None v

let pretty v = render (Some 2) v

(* ------------------------------------------------------------------ *)
(* parsing *)

let fail fmt = E.decode_error ~what:"Json" fmt

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail "expected %c at offset %d, found %c" c !pos c'
    | None -> fail "expected %c at offset %d, found end of input" c !pos
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      value
    end
    else fail "bad literal at offset %d" !pos
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string at offset %d" !pos
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some '"' -> Buffer.add_char buf '"'
          | Some '\\' -> Buffer.add_char buf '\\'
          | Some '/' -> Buffer.add_char buf '/'
          | Some 'n' -> Buffer.add_char buf '\n'
          | Some 'r' -> Buffer.add_char buf '\r'
          | Some 't' -> Buffer.add_char buf '\t'
          | Some 'b' -> Buffer.add_char buf '\b'
          | Some 'f' -> Buffer.add_char buf '\012'
          | Some 'u' ->
              if !pos + 4 >= n then fail "truncated \\u escape at offset %d" !pos;
              let hex = String.sub s (!pos + 1) 4 in
              let code =
                match int_of_string_opt ("0x" ^ hex) with
                | Some c -> c
                | None -> fail "bad \\u escape %S at offset %d" hex !pos
              in
              (* diagnostics only ever escape control characters, which
                 fit in one byte; reject the rest instead of guessing an
                 encoding *)
              if code > 0xff then fail "unsupported \\u escape %S at offset %d" hex !pos;
              Buffer.add_char buf (Char.chr code);
              pos := !pos + 4
          | Some c -> fail "bad escape \\%c at offset %d" c !pos
          | None -> fail "truncated escape at offset %d" !pos);
          advance ();
          go ()
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let skip pred =
      while match peek () with Some c -> pred c | None -> false do
        advance ()
      done
    in
    let digit c = c >= '0' && c <= '9' in
    if peek () = Some '-' then advance ();
    skip digit;
    let fractional = ref false in
    if peek () = Some '.' then begin
      fractional := true;
      advance ();
      skip digit
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        fractional := true;
        advance ();
        if peek () = Some '+' || peek () = Some '-' then advance ();
        skip digit
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    match (!fractional, int_of_string_opt text, float_of_string_opt text) with
    | false, Some v, _ -> Int v
    | true, _, Some f -> Float f
    | _ -> fail "bad number at offset %d" start
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input at offset %d" !pos
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected , or ] at offset %d" !pos
          in
          List (items [])
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let rec fields acc =
            let kv = field () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields (kv :: acc)
            | Some '}' ->
                advance ();
                List.rev (kv :: acc)
            | _ -> fail "expected , or } at offset %d" !pos
          in
          Obj (fields [])
        end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail "unexpected character %c at offset %d" c !pos
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage at offset %d" !pos;
  v

(* ------------------------------------------------------------------ *)
(* accessors *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_list = function List items -> items | _ -> fail "expected a list"

let get_string = function String s -> s | _ -> fail "expected a string"

let get_int = function Int n -> n | _ -> fail "expected an integer"

let get_float = function Float f -> f | Int n -> float_of_int n | _ -> fail "expected a number"

let get_bool = function Bool b -> b | _ -> fail "expected a boolean"
