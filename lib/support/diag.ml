(* Compiler diagnostics.

   All user-facing errors raised by the front end and back end carry a
   source location and a severity.  Internal invariant violations use
   [ice] ("internal compiler error") so that they are distinguishable from
   errors in the program under compilation. *)

type severity = Error | Warning | Note

type t = { severity : severity; loc : Srcloc.t; message : string }

exception Compile_error of t

let pp_severity ppf = function
  | Error -> Fmt.string ppf "error"
  | Warning -> Fmt.string ppf "warning"
  | Note -> Fmt.string ppf "note"

let pp ppf d =
  Fmt.pf ppf "%a: %a: %s" Srcloc.pp d.loc pp_severity d.severity d.message

let to_string d = Fmt.str "%a" pp d

let error ?(loc = Srcloc.dummy) fmt =
  Fmt.kstr
    (fun message ->
      raise (Compile_error { severity = Error; loc; message }))
    fmt

(* Pass-by-pass verification failure: an invariant the back end relies
   on no longer holds, and [pass] is the pipeline stage that introduced
   the breakage.  A species of internal compiler error, but tagged with
   the offending pass so regressions are attributable at a glance. *)
let verify_failed ~pass fmt =
  Fmt.kstr
    (fun message ->
      raise
        (Compile_error
           { severity = Error; loc = Srcloc.dummy;
             message =
               Fmt.str "internal compiler error: verification failed after pass '%s': %s"
                 pass message }))
    fmt

(* Internal compiler error: a bug in this compiler, not in user code. *)
let ice fmt =
  Fmt.kstr
    (fun message ->
      raise
        (Compile_error
           { severity = Error; loc = Srcloc.dummy;
             message = "internal compiler error: " ^ message }))
    fmt

(* Run [f] and capture a compile error as [Result.Error]. *)
let protect f =
  match f () with
  | v -> Ok v
  | exception Compile_error d -> Error d
