(* The ratchet: a committed list of grandfathered findings that may
   only shrink.  Entries are position-independent finding keys
   ([file|rule|message], see {!Finding.key}); a current finding whose
   key appears here is reported as baselined instead of failing the
   run, and an entry matching no current finding is itself an error —
   the fix landed, so the entry must be deleted. *)

type t = { entries : (string, int ref) Hashtbl.t; order : string list }

let empty () = { entries = Hashtbl.create 8; order = [] }

let of_lines lines =
  let entries = Hashtbl.create 8 in
  let order =
    List.filter_map
      (fun line ->
        let line = String.trim line in
        if String.equal line "" || Char.equal line.[0] '#' then None
        else begin
          if not (Hashtbl.mem entries line) then
            Hashtbl.replace entries line (ref 0);
          Some line
        end)
      lines
  in
  { entries; order }

let load path =
  if not (Sys.file_exists path) then empty ()
  else begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let lines = ref [] in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> ());
        of_lines (List.rev !lines))
  end

(* Consume a match for [key]; true when the finding is grandfathered. *)
let matches t key =
  match Hashtbl.find_opt t.entries key with
  | Some count ->
      incr count;
      true
  | None -> false

let stale t =
  List.filter
    (fun key ->
      match Hashtbl.find_opt t.entries key with
      | Some count -> Int.equal !count 0
      | None -> false)
    t.order

let header =
  [
    "# lintkit baseline — grandfathered findings, one key per line.";
    "# Format: file|rule|message (no positions, so entries survive";
    "# unrelated line shifts).  This file may only shrink: fixing a";
    "# finding makes its entry stale and the lint run fails until the";
    "# entry is deleted.  Justify any entry with a # comment above it.";
  ]

let save path keys =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        header;
      List.iter
        (fun k ->
          output_string oc k;
          output_char oc '\n')
        (List.sort_uniq String.compare keys))
