(* Command-line values the CLIs check the same way, each a usage error
   (exit 2) instead of an uncaught exception: output files named on the
   command line, where a path that cannot be opened prints "<cli>: cannot
   write PATH: <reason>", and the --domains count. *)

let fail ~cli path_and_reason =
  Printf.eprintf "%s: cannot write %s\n" cli path_and_reason;
  exit 2

let write ~cli path contents =
  (* [open_out]'s [Sys_error] message reads "PATH: reason" *)
  match open_out path with
  | exception Sys_error msg -> fail ~cli msg
  | oc ->
    output_string oc contents;
    close_out oc

(* For a CLI that writes its files only after a long run: reject a path
   whose directory is missing before any of the work is done. *)
let check_dir ~cli path =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then fail ~cli (path ^ ": No such file or directory")
  else if not (Sys.is_directory dir) then fail ~cli (path ^ ": Not a directory")

(* --domains N for the CLIs that fan work over the pool; absent keeps the
   pool's default *)
let set_domains = function
  | Some d when d < 1 ->
    Printf.eprintf "--domains must be at least 1 (got %d)\n" d;
    exit 2
  | Some d -> Wr_pool.set_default_domains d
  | None -> ()
