(* Classification of names that resolve outside the lib/ tree.  The
   untyped AST gives us dotted paths only, so this is a curated model
   of the stdlib surface this codebase uses: an explicit write table,
   an explicit nondeterminism table, and a pure table (exact names
   plus whole-module prefixes).  Precedence is writes/nondet before
   the pure prefixes — [Array.set] must not be blessed by the
   [Array.] prefix — and anything dotted that matches nothing stays
   [Unknown], which the pure rule reports rather than trusts. *)

let mem table name = List.exists (fun (n, _) -> String.equal n name) table
let find table name = List.assoc name table

(* --- writes -------------------------------------------------------- *)

(* Externals that mutate one of their arguments or a global.  The
   receiver-naming for Array/Bytes/ref writes happens at the call site
   (see Callgraph); these entries catch the same functions when they
   escape as values or take an unnamed receiver. *)
let writes =
  [
    ("Array.set", "array");
    ("Array.unsafe_set", "array");
    ("Array.fill", "array");
    ("Array.blit", "array");
    ("Array.sort", "array");
    ("Array.fast_sort", "array");
    ("Array.stable_sort", "array");
    ("Bytes.set", "bytes");
    ("Bytes.unsafe_set", "bytes");
    ("Bytes.fill", "bytes");
    ("Bytes.blit", "bytes");
    ("Bytes.blit_string", "bytes");
    (":=", "ref");
    ("incr", "ref");
    ("decr", "ref");
    ("Hashtbl.add", "hashtable");
    ("Hashtbl.replace", "hashtable");
    ("Hashtbl.remove", "hashtable");
    ("Hashtbl.clear", "hashtable");
    ("Hashtbl.reset", "hashtable");
    ("Hashtbl.filter_map_inplace", "hashtable");
    ("Queue.add", "queue");
    ("Queue.push", "queue");
    ("Queue.pop", "queue");
    ("Queue.take", "queue");
    ("Queue.clear", "queue");
    ("Queue.transfer", "queue");
    ("Stack.push", "stack");
    ("Stack.pop", "stack");
    ("Stack.clear", "stack");
    ("Buffer.add_string", "buffer");
    ("Buffer.add_char", "buffer");
    ("Buffer.add_bytes", "buffer");
    ("Buffer.add_substring", "buffer");
    ("Buffer.add_buffer", "buffer");
    ("Buffer.clear", "buffer");
    ("Buffer.reset", "buffer");
    ("Buffer.truncate", "buffer");
    ("Atomic.set", "atomic");
    ("Atomic.exchange", "atomic");
    ("Atomic.compare_and_set", "atomic");
    ("Atomic.fetch_and_add", "atomic");
    ("Atomic.incr", "atomic");
    ("Atomic.decr", "atomic");
    ("Mutex.lock", "mutex");
    ("Mutex.unlock", "mutex");
    ("Mutex.try_lock", "mutex");
    ("Condition.wait", "condition");
    ("Condition.signal", "condition");
    ("Condition.broadcast", "condition");
    ("Domain.spawn", "domain");
    ("Domain.join", "domain");
    ("print_string", "stdout");
    ("print_bytes", "stdout");
    ("print_int", "stdout");
    ("print_float", "stdout");
    ("print_char", "stdout");
    ("print_endline", "stdout");
    ("print_newline", "stdout");
    ("prerr_string", "stderr");
    ("prerr_endline", "stderr");
    ("prerr_newline", "stderr");
    ("output_string", "channel");
    ("output_char", "channel");
    ("output_byte", "channel");
    ("output_bytes", "channel");
    ("output_substring", "channel");
    ("flush", "channel");
    ("flush_all", "channel");
    ("close_out", "channel");
    ("close_out_noerr", "channel");
    ("open_out", "channel");
    ("open_out_bin", "channel");
    ("open_in", "channel");
    ("open_in_bin", "channel");
    ("close_in", "channel");
    ("close_in_noerr", "channel");
    ("input_line", "channel");
    ("input_char", "channel");
    ("really_input_string", "channel");
    ("in_channel_length", "channel");
    ("read_line", "stdin");
    ("exit", "process");
    ("at_exit", "process");
    ("Printf.printf", "stdout");
    ("Printf.eprintf", "stderr");
    ("Printf.fprintf", "channel");
    ("Format.printf", "stdout");
    ("Format.eprintf", "stderr");
    ("Format.fprintf", "formatter");
    ("Format.print_string", "stdout");
    ("Format.print_newline", "stdout");
    ("Format.print_flush", "stdout");
  ]

(* Prefix writes: modules whose whole surface mutates hidden state. *)
let write_prefixes = [ ("Random.State.", "rng state") ]

(* --- nondeterminism ------------------------------------------------ *)

let nondets =
  [
    ("Unix.gettimeofday", "wall clock");
    ("Unix.time", "wall clock");
    ("Unix.getpid", "process identity");
    ("Unix.getenv", "environment lookup");
    ("Sys.time", "CPU clock");
    ("Sys.getenv", "environment lookup");
    ("Sys.getenv_opt", "environment lookup");
    ("Random.self_init", "self-seeded RNG");
    ("Hashtbl.hash", "polymorphic hash (heap-layout dependent)");
    ("Hashtbl.seeded_hash", "polymorphic hash (heap-layout dependent)");
    ("Hashtbl.hash_param", "polymorphic hash (heap-layout dependent)");
    ("Domain.self", "domain identity");
    ("Domain.recommended_domain_count", "host topology");
  ]

(* Prefix nondets: the global-state Random surface (checked after
   [Random.State.], whose explicit-state functions are merely writes). *)
let nondet_prefixes = [ ("Random.", "global-state RNG") ]

(* --- pure ---------------------------------------------------------- *)

let pures =
  [
    "+"; "-"; "*"; "/"; "mod"; "abs"; "land"; "lor"; "lxor"; "lnot"; "lsl";
    "lsr"; "asr"; "+."; "-."; "*."; "/."; "**"; "~-"; "~-."; "~+"; "~+.";
    "="; "<>"; "=="; "!="; "<"; ">"; "<="; ">="; "compare"; "min"; "max";
    "&&"; "||"; "not"; "@"; "^"; "^^"; "!"; "|>"; "@@"; "fst"; "snd";
    "ignore"; "succ"; "pred"; "ref"; "float_of_int"; "int_of_float";
    "truncate"; "ceil"; "floor"; "sqrt"; "exp"; "log"; "log10"; "log2";
    "abs_float"; "int_of_char"; "char_of_int"; "string_of_int";
    "int_of_string"; "int_of_string_opt"; "string_of_float";
    "float_of_string"; "float_of_string_opt"; "string_of_bool";
    "bool_of_string"; "raise"; "raise_notrace"; "failwith"; "invalid_arg";
    "nan"; "infinity"; "neg_infinity"; "epsilon_float"; "max_float";
    "min_float"; "max_int"; "min_int"; "Printf.sprintf"; "Printf.ksprintf";
    "Format.sprintf"; "Format.asprintf"; "Sys.word_size"; "Sys.int_size";
    "Sys.max_array_length"; "Sys.big_endian"; "Sys.ocaml_version";
    "Sys.opaque_identity";
  ]

(* Modules that are pure once their explicit write/nondet entries above
   have been filtered out: containers read back what the caller put in,
   and allocation is not a shared-state write. *)
let pure_prefixes =
  [
    "List."; "ListLabels."; "Array."; "ArrayLabels."; "Bytes."; "String.";
    "StringLabels."; "Char."; "Int."; "Int32."; "Int64."; "Nativeint.";
    "Float."; "Bool."; "Option."; "Result."; "Either."; "Fun."; "Seq.";
    "Lazy."; "Filename."; "Map."; "Set."; "Queue."; "Stack."; "Buffer.";
    "Hashtbl."; "Atomic."; "Obj.";
  ]

let starts_with ~prefix s =
  let plen = String.length prefix in
  String.length s >= plen && String.equal (String.sub s 0 plen) prefix

let find_prefix table name =
  List.find_opt (fun (p, _) -> starts_with ~prefix:p name) table

(* [name] is Stdlib-stripped and alias-expanded.  Never returns
   [Known]; bare names that match nothing are the caller's problem
   (locals and parameters are invisible to an untyped analysis). *)
let classify name : Summary.resolved option =
  if mem nondets name then Some (Ext_nondet (name, find nondets name))
  else if mem writes name then
    Some (Ext_write (name, Summary.Opaque (find writes name)))
  else
    match find_prefix write_prefixes name with
    | Some (_, what) -> Some (Ext_write (name, Summary.Opaque what))
    | None -> (
        match find_prefix nondet_prefixes name with
        | Some (_, why) -> Some (Ext_nondet (name, why))
        | None ->
            if List.exists (String.equal name) pures then Some Ext_pure
            else if
              Option.is_some
                (List.find_opt
                   (fun p -> starts_with ~prefix:p name)
                   pure_prefixes)
            then Some Ext_pure
            else if String.contains name '.' then Some (Unknown name)
            else None)
