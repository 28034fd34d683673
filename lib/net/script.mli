(** A small declarative language for simulation scenarios, so experiments
    can be written as text files and replayed from the CLI
    ([vegvisir-cli simulate --file disaster.scn]).

    Format: one directive per line; [#] starts a comment. Header
    directives configure the fleet; [at <ms> …] directives schedule
    timeline events; a final [run <ms>] sets the horizon.

    {v
    peers 8
    topology clique            # clique | line S R | grid S R | random A R
    seed 42
    interval 800               # gossip period, ms
    mode naive                 # naive | bloom | digest
    duty 4000 0.25             # optional: sleep period ms, awake fraction
    crdt log gset string       # name kind elem (kind: gset|orset|counter|rga)

    at 2000  partition 0 0 0 0 1 1 1 1
    at 3000  append 2 log hello-from-the-left
    at 4000  append 6 log hello-from-the-right
    at 9000  heal
    at 20000 witness 1
    at 50000 assert-converged
    at 50000 report
    run 60000
    v} *)

type t

val parse : string -> (t, string) result
(** Parse a scenario; the error names the offending line. *)

val run : t -> (string, string) result
(** Execute the scenario. [Ok report] collects every [report] directive's
    output plus a final summary; [Error msg] on the first failed
    assertion (the report so far is included in the message). *)
