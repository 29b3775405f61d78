(** LZ78 compression-length estimation.

    Trace complexity (Avin et al., SIGMETRICS 2020; Def. 8 of the
    paper) measures the entropy of a request sequence by the size of
    its compressed encoding.  The original work uses off-the-shelf
    byte compressors; this container has none, so we implement LZ78,
    the textbook universal code: asymptotically optimal for ergodic
    sources and monotone in exactly the temporal/non-temporal
    structure the measure needs.

    The encoder works over an arbitrary integer alphabet — a trace is
    compressed as its sequence of request symbols (pair identifiers),
    which avoids the byte-alignment artifacts a fixed binary encoding
    would introduce.  Each emitted phrase costs
    ⌈log2 (dictionary size)⌉ bits of back-reference plus
    ⌈log2 (alphabet size)⌉ bits for the extension symbol. *)

val compressed_bits : ?alphabet:int -> int array -> int
(** Length of the LZ78 encoding in bits.  [alphabet] defaults to the
    number of distinct symbols in the input (at least 2). *)

val compressed_bytes : ?alphabet:int -> int array -> int
(** [compressed_bits / 8], rounded up. *)

(* lint: allow unused-export -- the LZ78 tests count phrases directly *)
val phrase_count : int array -> int
(** Number of LZ78 phrases (for tests: sub-linear growth on
    structured input, near-linear on noise). *)

(* lint: allow unused-export -- the LZ78 tests pin the code width *)
val bits_for : int -> int
(** ⌈log2 n⌉ with a minimum of 1 (exposed for tests). *)
