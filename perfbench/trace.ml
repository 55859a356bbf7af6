(* In-memory spans for the traced run. A span is recorded around each
   call the benchmark makes into a library; spans of one pass share a
   pass id, and each span names the span that was open when it
   started. Nothing is recorded while [enabled] is false. *)

type span = {
  id : int;
  name : string;
  pass : int;
  parent : int;  (** [-1] at top level *)
  start_ns : int;
  mutable stop_ns : int;
}

let enabled = ref false
let pass = ref 0
let current = ref (-1)
let recorded : span list ref = ref []
let next_id = ref 0

let span name f =
  if not !enabled then f ()
  else begin
    let s =
      { id = !next_id;
        name;
        pass = !pass;
        parent = !current;
        start_ns = Clock.now_ns ();
        stop_ns = -1 }
    in
    incr next_id;
    recorded := s :: !recorded;
    current := s.id;
    Fun.protect
      ~finally:(fun () ->
        s.stop_ns <- Clock.now_ns ();
        current := s.parent)
      f
  end

(* Spans recorded so far, in start order. *)
let spans () = List.rev !recorded

let duration s = s.stop_ns - s.start_ns

(* The layer a span belongs to: its name without the final
   [.function] part ("glitch_emu.run_case" -> "glitch_emu"). *)
let layer name =
  match String.rindex_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Self time per layer in ns: each span's duration minus the time its
   child spans cover. Children run inside their parent on one domain,
   so they never overlap and their durations simply add. Returns
   [(layer, spans, self_ns)] sorted by layer. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (duration s + Option.value ~default:0 (Hashtbl.find_opt children s.parent)))
    spans;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = duration s - Option.value ~default:0 (Hashtbl.find_opt children s.id) in
      let l = layer s.name in
      let n, t = Option.value ~default:(0, 0) (Hashtbl.find_opt by_layer l) in
      Hashtbl.replace by_layer l (n + 1, t + self))
    spans;
  Hashtbl.fold (fun l (n, t) acc -> (l, n, t) :: acc) by_layer []
  |> List.sort compare

let write path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        {|{"id":%d,"name":"%s","pass":%d,"parent":%d,"start_ns":%d,"end_ns":%d}|}
        s.id s.name s.pass s.parent s.start_ns s.stop_ns;
      output_char oc '\n')
    spans;
  close_out oc
