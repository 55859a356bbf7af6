(* The serve workload's request stream, generated from the workload
   seed. The service only ever sees the rendered lines.

   A pass is two sessions over one fresh cache directory. Session 1
   sends every one of the 102 keys at least once (each first sighting
   is a miss, every repeat a hit) and session 2, a restarted server,
   re-sends popular keys (all hits). Popularity is Zipf-like over a
   seeded ranking of the keys. The line, key and malformed counts are
   fixed, so only the order and the popularity ranking depend on the
   seed: misses are 102 of 1,700 lines (6%) and malformed lines 50
   (2.9%). *)

type key = { case : string; model : string; zero_is_invalid : bool }

let keys =
  let cases =
    List.map
      (fun (c : Glitch_emu.Testcase.t) -> String.lowercase_ascii c.name)
      (Glitch_emu.Testcase.all_conditional_branches
      @ Glitch_emu.Testcase.non_branch_cases)
  in
  Array.of_list
    (List.concat_map
       (fun case ->
         List.concat_map
           (fun model ->
             List.map
               (fun zero_is_invalid -> { case; model; zero_is_invalid })
               [ false; true ])
           [ "and"; "or"; "xor" ])
       cases)

type line = { text : string; key : int option  (** [None]: malformed *) }

let session_lines = 850
let malformed_per_session = 25

let request_text id k =
  let k = keys.(k) in
  Printf.sprintf {|{"id":%d,"case":"%s","model":"%s","zero_is_invalid":%b}|} id
    k.case k.model k.zero_is_invalid

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* One of three malformed shapes; each must be answered ok:false. *)
let malformed rng id =
  match Random.State.int rng 3 with
  | 0 ->
    (* a proper prefix of a JSON object is never valid JSON *)
    let full = request_text id (Random.State.int rng (Array.length keys)) in
    String.sub full 0 (1 + Random.State.int rng (String.length full - 1))
  | 1 -> Printf.sprintf {|{"id":%d,"case":"bnope","model":"and"}|} id
  | _ -> Printf.sprintf {|{"id":%d,"case":"beq","model":"nand"}|} id

(* Interleave [requests] with [malformed_per_session] malformed lines at
   seeded positions; ids run on from [first_id]. *)
let session rng ~first_id requests =
  let bad = Array.make session_lines false in
  let slots = shuffle rng (Array.init session_lines Fun.id) in
  for i = 0 to malformed_per_session - 1 do
    bad.(slots.(i)) <- true
  done;
  let next = ref 0 in
  Array.init session_lines (fun i ->
      let id = first_id + i in
      if bad.(i) then { text = malformed rng id; key = None }
      else begin
        let k = requests.(!next) in
        incr next;
        { text = request_text id k; key = Some k }
      end)

let generate ~seed =
  let rng = Random.State.make [| 0x5e7e; seed |] in
  let nkeys = Array.length keys in
  let by_rank = shuffle rng (Array.init nkeys Fun.id) in
  let cumulative = Array.make nkeys 0. in
  let total = ref 0. in
  for r = 0 to nkeys - 1 do
    total := !total +. (1. /. float_of_int (r + 1));
    cumulative.(r) <- !total
  done;
  let zipf () =
    let u = Random.State.float rng !total in
    let r = ref 0 in
    while !r < nkeys - 1 && cumulative.(!r) <= u do
      incr r
    done;
    by_rank.(!r)
  in
  let requests = session_lines - malformed_per_session in
  let first =
    shuffle rng
      (Array.append (Array.init nkeys Fun.id)
         (Array.init (requests - nkeys) (fun _ -> zipf ())))
  in
  let second = Array.init requests (fun _ -> zipf ()) in
  let s1 = session rng ~first_id:1 first in
  let s2 = session rng ~first_id:(session_lines + 1) second in
  (s1, s2)
