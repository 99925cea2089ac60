(* The benchmark's workloads: which programs each one analyses, how their
   inputs derive from the benchmark seed, and the serve-side edit and query
   streams. Everything here is a pure function of (workload, seed). *)

module Gen = Pta_workload.Gen
module Suite = Pta_workload.Suite
module Protocol = Pta_serve.Protocol

type program = {
  name : string;  (* e.g. "janet.17" (variant 17), "mruby", "mega" *)
  source : string;
  cfg_seed : int option;  (* [None]: RNG-free generator *)
}

(* Where a program comes from. *)
type origin =
  | Variants of string list * float * int
      (* each suite entry at a scale, in this many seeded variants *)
  | Entry of string * float  (* a suite entry's own config at a scale *)
  | Mega of float  (* Gen.mega_source at a Gen.mega_scaled scale *)

type t = {
  wname : string;
  batch : origin;  (* what the batch phase analyses *)
  serve : origin;  (* the one program the daemon is started on *)
  reload_every : float;  (* seconds between one-function edits *)
}

(* Sizes keep one run near 40 s on 2 vCPUs. The suite sums many small
   seeded variants because one seeded program's cost varies ~2x between
   seeds; each daemon program is fixed so that reload cost does not vary
   with the seed, and its reload interval keeps reloads near a fifth to a
   third of the serve phase: the median query stays clear of them, and
   both blocked and unblocked queries are sampled in the hundreds.
   perfbench/README.md gives the measurements. *)
let all =
  [
    { wname = "suite";
      batch = Variants ([ "janet"; "tmux"; "hyriseConsole" ], 0.1, 64);
      serve = Entry ("janet", 0.3); reload_every = 2.5 };
    { wname = "mega"; batch = Mega 0.03; serve = Mega 0.005;
      reload_every = 3.5 };
    { wname = "serve-edit"; batch = Entry ("mruby", 0.3);
      serve = Entry ("mruby", 0.3); reload_every = 3.5 };
  ]

let find name =
  match List.find_opt (fun w -> w.wname = name) all with
  | Some w -> w
  | None -> failwith ("unknown workload " ^ name)

(* A SplitMix64-style finaliser over OCaml's 63-bit ints (constants cut to
   fit): decorrelates its inputs. *)
let mix a b =
  let z = ref ((a * 0x1E3779B97F4A7C15) + b) in
  z := (!z lxor (!z lsr 30)) * 0x3F58476D1CE4E5B9;
  z := (!z lxor (!z lsr 27)) * 0x14D049BB133111EB;
  (!z lxor (!z lsr 31)) land 0x3FFFFFFF

let entry name scale =
  match Suite.find ~scale name with
  | Some e -> e
  | None -> failwith ("unknown suite program " ^ name)

(* Variant [k] keeps the entry's size and flavour; only its RNG stream
   moves, derived from the entry's own seed, the benchmark seed and [k]. *)
let variant ~seed name scale k =
  let e = entry name scale in
  let s = mix (mix e.Suite.cfg.Gen.seed seed) k in
  { name = Printf.sprintf "%s.%d" name k;
    source = Gen.source { e.Suite.cfg with Gen.seed = s };
    cfg_seed = Some s }

let programs ~seed = function
  | Variants (names, scale, n) ->
    List.concat_map (fun name -> List.init n (variant ~seed name scale)) names
  | Entry (name, scale) ->
    let e = entry name scale in
    [ { name; source = Gen.source e.Suite.cfg;
        cfg_seed = Some e.Suite.cfg.Gen.seed } ]
  | Mega scale ->
    [ { name = "mega"; source = Gen.mega_source (Gen.mega_scaled scale);
        cfg_seed = None } ]

(* ---------- serve-side streams ---------- *)

(* The [k]-th seeded one-function edit appended before the [k]-th reload:
   a fresh function over its own parameters, so the program stays valid
   whatever it already contains. *)
let edit ~seed k =
  let rng = Random.State.make [| seed; k; 0xED17 |] in
  let n_locals = 2 + Random.State.int rng 3 in
  let local i = Printf.sprintf "t%d" i in
  let pick () = local (Random.State.int rng n_locals) in
  let b = Buffer.create 256 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string b s;
        Buffer.add_char b '\n')
      fmt
  in
  line "";
  line "func bench_edit%d(p, q) {" k;
  line "  var %s;" (String.concat ", " (List.init n_locals local));
  for i = 0 to n_locals - 1 do
    line "  %s = malloc();" (local i)
  done;
  for _ = 1 to 2 + Random.State.int rng 4 do
    match Random.State.int rng 4 with
    | 0 -> line "  *p = %s;" (pick ())
    | 1 -> line "  %s = *q;" (pick ())
    | 2 -> line "  %s->fld%d = %s;" (pick ()) (Random.State.int rng 4) (pick ())
    | _ -> line "  %s = %s->fld%d;" (pick ()) (pick ()) (Random.State.int rng 4)
  done;
  line "  return %s;" (pick ());
  line "}";
  Buffer.contents b

(* Seeded point queries over the daemon's variable names: mostly points-to,
   with may-alias pairs mixed in. [salt] separates independent streams. *)
let queries ~seed ~salt names n =
  let names = Array.of_list names in
  let rng = Random.State.make [| seed; salt; 0x9E41 |] in
  let pick () = names.(Random.State.int rng (Array.length names)) in
  List.init n (fun _ ->
      if Random.State.int rng 4 = 0 then Protocol.May_alias (pick (), pick ())
      else Protocol.Points_to (pick ()))
