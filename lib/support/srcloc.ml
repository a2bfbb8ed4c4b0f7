(* Source locations: a span of positions inside a named compilation unit. *)

type pos = { line : int; col : int; offset : int }

type t = { file : string; start_pos : pos; end_pos : pos }

let start_of_file file =
  { line = 1; col = 1; offset = 0 }
  |> fun p -> { file; start_pos = p; end_pos = p }

let dummy = { file = "<none>"; start_pos = { line = 0; col = 0; offset = 0 };
              end_pos = { line = 0; col = 0; offset = 0 } }

let make ~file ~start_pos ~end_pos = { file; start_pos; end_pos }

let merge a b =
  if a == dummy then b
  else if b == dummy then a
  else { a with end_pos = b.end_pos }

let file t = t.file
let start_line t = t.start_pos.line

let pp ppf t =
  if t == dummy then Fmt.string ppf "<unknown location>"
  else if t.start_pos.line = t.end_pos.line then
    Fmt.pf ppf "%s:%d.%d-%d" t.file t.start_pos.line t.start_pos.col
      t.end_pos.col
  else
    Fmt.pf ppf "%s:%d.%d-%d.%d" t.file t.start_pos.line t.start_pos.col
      t.end_pos.line t.end_pos.col

let to_string t = Fmt.str "%a" pp t
