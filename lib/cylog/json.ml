(* The JSON value type, its two printers and an RFC 8259 parser. See
   json.mli for the dialect. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- Printing -------------------------------------------------------------- *)

let float_repr x =
  if not (Float.is_finite x) then "null"
  else begin
    let rec shortest p =
      if p >= 17 || float_of_string (Printf.sprintf "%.*g" p x) = x then p
      else shortest (p + 1)
    in
    (* %g switches to an exponent once the integer part has more digits
       than the precision; widening to the integer digits keeps integral
       values below 1e17 positional ([100.0], not [1e+02]). Extra digits
       of a correctly rounded decimal still read back as [x]. *)
    let int_digits = String.length (Printf.sprintf "%.0f" (Float.abs x)) in
    let p = if Float.abs x < 1e17 then max (shortest 1) int_digits else shortest 1 in
    let s = Printf.sprintf "%.*g" p x in
    if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"
  end

let write ~pretty v =
  let buf = Buffer.create 256 in
  let add = Buffer.add_string buf in
  let newline depth = if pretty then add ("\n" ^ String.make (2 * depth) ' ') in
  let quoted s =
    Buffer.add_char buf '"';
    String.iter
      (function
        | '"' -> add "\\\""
        | '\\' -> add "\\\\"
        | '\n' -> add "\\n"
        | '\r' -> add "\\r"
        | '\t' -> add "\\t"
        | c when c < ' ' -> add (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  in
  let rec value depth = function
    | Null -> add "null"
    | Bool b -> add (string_of_bool b)
    | Int n -> add (string_of_int n)
    | Float f -> add (float_repr f)
    | String s -> quoted s
    | List [] -> add "[]"
    | Obj [] -> add "{}"
    | List l -> seq depth "[" "]" (value (depth + 1)) l
    | Obj kv ->
        seq depth "{" "}"
          (fun (k, v) ->
            quoted k;
            add (if pretty then ": " else ":");
            value (depth + 1) v)
          kv
  and seq : 'a. int -> string -> string -> ('a -> unit) -> 'a list -> unit =
   fun depth opening closing item xs ->
    add opening;
    List.iteri
      (fun i x ->
        if i > 0 then add ",";
        newline (depth + 1);
        item x)
      xs;
    newline depth;
    add closing
  in
  value 0 v;
  Buffer.contents buf

let to_string v = write ~pretty:false v
let to_string_pretty v = write ~pretty:true v

(* --- Parsing --------------------------------------------------------------- *)

exception Fail of int

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail () = raise (Fail !pos) in
  (* NUL stands for end of input: it is invalid wherever it can be seen,
     so a literal NUL byte fails at its own offset just the same. *)
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let expect c = if peek () = c then advance () else fail () in
  let skip_ws () = while String.contains " \t\n\r" (peek ()) do advance () done in
  let literal word v =
    String.iter expect word;
    v
  in
  let hex4 () =
    let code = ref 0 in
    for _ = 1 to 4 do
      let d =
        match peek () with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail ()
      in
      advance ();
      code := (!code lsl 4) lor d
    done;
    !code
  in
  (* One [\u] escape, [\] at [at]; a high surrogate must be followed by
     an escaped low one. *)
  let unicode at =
    let hi = hex4 () in
    if hi >= 0xDC00 && hi <= 0xDFFF then raise (Fail at);
    if hi < 0xD800 || hi > 0xDBFF then hi
    else begin
      if not (!pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u') then raise (Fail at);
      pos := !pos + 2;
      let lo = hex4 () in
      if lo < 0xDC00 || lo > 0xDFFF then raise (Fail at);
      0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
    end
  in
  let string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
          let at = !pos in
          advance ();
          let c = peek () in
          advance ();
          (match c with
          | '"' | '\\' | '/' -> Buffer.add_char buf c
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' -> Buffer.add_utf_8_uchar buf (Uchar.of_int (unicode at))
          | _ -> raise (Fail (at + 1)));
          go ()
      | c when c < ' ' -> fail ()
      | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let digits () =
    if not ('0' <= peek () && peek () <= '9') then fail ();
    while '0' <= peek () && peek () <= '9' do advance () done
  in
  let number () =
    let start = !pos in
    if peek () = '-' then advance ();
    if peek () = '0' then advance () else digits ();
    let integral = peek () <> '.' && peek () <> 'e' && peek () <> 'E' in
    if peek () = '.' then (advance (); digits ());
    if peek () = 'e' || peek () = 'E' then begin
      advance ();
      if peek () = '+' || peek () = '-' then advance ();
      digits ()
    end;
    let lit = String.sub s start (!pos - start) in
    match if integral then int_of_string_opt lit else None with
    | Some i -> Int i
    | None -> Float (float_of_string lit)
  in
  (* The items of an array or object, opening bracket at [pos]. *)
  let sequence close item =
    advance ();
    skip_ws ();
    if peek () = close then (advance (); [])
    else begin
      let acc = ref [ item () ] in
      skip_ws ();
      while peek () = ',' do
        advance ();
        acc := item () :: !acc;
        skip_ws ()
      done;
      expect close;
      List.rev !acc
    end
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' -> Obj (sequence '}' member)
    | '[' -> List (sequence ']' value)
    | '"' -> String (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> number ()
    | _ -> fail ()
  and member () =
    skip_ws ();
    let k = string () in
    skip_ws ();
    expect ':';
    (k, value ())
  in
  match
    let v = value () in
    skip_ws ();
    if !pos < n then fail ();
    v
  with
  | v -> Ok v
  | exception Fail at -> Error at
