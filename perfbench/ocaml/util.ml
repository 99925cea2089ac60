(* Small helpers shared by the benchmark's subcommands: a JSON emitter,
   process memory probes, order statistics and file I/O. *)

type json =
  | Int of int
  | Num of float
  | Str of string
  | Bool of bool
  | Null
  | List of json list
  | Obj of (string * json) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec to_string = function
  | Int i -> string_of_int i
  | Num f ->
    if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
  | Str s -> "\"" ^ escape s ^ "\""
  | Bool b -> string_of_bool b
  | Null -> "null"
  | List l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj kv ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) kv)
    ^ "}"

let print_json j = print_endline (to_string j)

(* ---------- time and memory ---------- *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* A "Vm..." field of a /proc status file, in kB; 0 when unavailable. *)
let status_kb ~file field =
  match open_in file with
  | exception Sys_error _ -> 0
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | exception End_of_file -> 0
          | l ->
            let p = field ^ ":" in
            let n = String.length p in
            if String.length l > n && String.sub l 0 n = p then
              match
                String.split_on_char ' '
                  (String.trim (String.sub l n (String.length l - n)))
              with
              | v :: _ -> ( try int_of_string v with Failure _ -> 0)
              | [] -> 0
            else go ()
        in
        go ())

let vmhwm_kb () = status_kb ~file:"/proc/self/status" "VmHWM"
let vmhwm_kb_of_pid pid =
  status_kb ~file:(Printf.sprintf "/proc/%d/status" pid) "VmHWM"

(* ---------- order statistics ---------- *)

(* Nearest-rank percentile of an unsorted sample; [p] in [0, 100]. *)
let percentile p xs =
  match xs with
  | [] -> nan
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let k = int_of_float (Float.ceil (p /. 100. *. float n)) - 1 in
    a.(max 0 (min (n - 1) k))

let median xs =
  match xs with
  | [] -> nan
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* ---------- files ---------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
      output_string oc s)

let append_file path s =
  let oc = open_out_gen [ Open_append; Open_binary; Open_creat ] 0o644 path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
      output_string oc s)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec dir_bytes path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left
      (fun acc e -> acc + dir_bytes (Filename.concat path e))
      0 (Sys.readdir path)
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> st_size
  | _ -> 0
  | exception Unix.Unix_error _ -> 0

(* ---------- command line ---------- *)

(* [--key value] pairs after the subcommand; repeated keys keep all values. *)
let parse_flags argv =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> List.rev acc
    | x :: _ -> failwith ("unexpected argument " ^ x)
  in
  go [] argv

let flag flags k =
  match List.assoc_opt k flags with
  | Some v -> v
  | None -> failwith ("missing --" ^ k)
