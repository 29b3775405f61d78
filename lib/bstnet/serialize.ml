(* Node ids are ints; monomorphic (<>) as in Topology.  Header and
   field tags compare with String.equal explicitly. *)
let ( <> ) (a : int) b = not (Int.equal a b)

let to_string t =
  let n = Topology.n t in
  let buf = Buffer.create (16 * n) in
  Buffer.add_string buf (Printf.sprintf "cbnet-topology v1\nn %d\nroot %d\n" n (Topology.root t));
  Buffer.add_string buf "parents";
  for v = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf " %d" (Topology.parent t v))
  done;
  Buffer.add_string buf "\nweights";
  for v = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf " %d" (Topology.weight t v))
  done;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let of_string s =
  let lines = String.split_on_char '\n' s in
  let field name line =
    match String.split_on_char ' ' (String.trim line) with
    | tag :: rest when String.equal tag name -> rest
    | _ -> failwith (Printf.sprintf "Serialize.of_string: expected %S field" name)
  in
  match lines with
  | header :: n_line :: root_line :: parents_line :: weights_line :: _ ->
      if not (String.equal (String.trim header) "cbnet-topology v1") then
        failwith "Serialize.of_string: bad header";
      let n =
        match field "n" n_line with
        | [ v ] -> int_of_string v
        | _ -> failwith "Serialize.of_string: bad n"
      in
      let root =
        match field "root" root_line with
        | [ v ] -> int_of_string v
        | _ -> failwith "Serialize.of_string: bad root"
      in
      let parents = Array.of_list (List.map int_of_string (field "parents" parents_line)) in
      let weights = Array.of_list (List.map int_of_string (field "weights" weights_line)) in
      if Array.length parents <> n || Array.length weights <> n then
        failwith "Serialize.of_string: array length mismatch";
      let t = Topology.create ~n ~root in
      Array.iteri
        (fun child parent ->
          if parent <> Topology.nil then begin
            if parent < 0 || parent >= n then
              failwith "Serialize.of_string: parent out of range";
            Topology.set_child t ~parent ~child
          end
          else if child <> root then
            failwith "Serialize.of_string: non-root orphan node")
        parents;
      (* Rebuild interval labels bottom-up, then install the saved
         weights verbatim. *)
      let rec refresh v =
        if v <> Topology.nil then begin
          refresh (Topology.left t v);
          refresh (Topology.right t v);
          Topology.refresh_local t v
        end
      in
      refresh root;
      Array.iteri (fun v w -> Topology.set_weight t v w) weights;
      (match Check.structure t with
      | Ok () -> ()
      | Error e -> failwith ("Serialize.of_string: " ^ e));
      (match Check.bst_order t with
      | Ok () -> ()
      | Error e -> failwith ("Serialize.of_string: " ^ e));
      t
  | _ -> failwith "Serialize.of_string: truncated input"

