(* Where a run leaves its files (trace, per-layer table, the daemon's
   socket): a directory inside the checkout the benchmark runs from. *)

let path = ".bench_out"

let ensure () = if not (Sys.file_exists path) then Sys.mkdir path 0o755
