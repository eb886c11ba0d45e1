(* Statistics for nf2bench: exact quantiles of raw samples, the
   "highest percentile with at least ten samples beyond it" rule, the
   choice of a run's fastest segments, and counter deltas between two
   Prometheus scrapes. *)

(* Percentile levels in thousandths, highest first. *)
let levels = [ 999; 990; 950; 900; 500 ]

(* Nearest rank, as Obs.Registry.quantile: the ceil(q*n)-th smallest. *)
let rank ~per_mille n = ((per_mille * n) + 999) / 1000

(* Do [n] samples leave at least 10 strictly above level [q]'s rank? *)
let supports q n = n - rank ~per_mille:q n >= 10

(* The highest level at or below [cap] that [n] samples support;
   [None] when even the median is not. *)
let tail_level ?(cap = 990) n = List.find_opt (fun q -> q <= cap && supports q n) levels

let sorted samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  a

(* [sorted] ascending. *)
let quantile sorted ~per_mille =
  let n = Array.length sorted in
  sorted.(min (n - 1) (max 0 (rank ~per_mille n - 1)))

type summary = {
  n : int;
  p50 : float option;
  tail : (int * float) option;  (** level in thousandths, value *)
}

let summarize ?cap samples =
  let sorted = sorted samples in
  let n = Array.length sorted in
  let at q = Some (quantile sorted ~per_mille:q) in
  {
    n;
    p50 = (if supports 500 n then at 500 else None);
    tail = Option.map (fun q -> (q, quantile sorted ~per_mille:q)) (tail_level ?cap n);
  }

let level_name q =
  if q mod 10 = 0 then Printf.sprintf "p%d" (q / 10)
  else Printf.sprintf "p%d.%d" (q / 10) (q mod 10)

(* Indices of the quarter of [counts] with the highest counts (at
   least one), highest first; a tie goes to the lower index. *)
let top_quarter counts =
  let n = Array.length counts in
  List.init n Fun.id
  |> List.stable_sort (fun a b -> compare counts.(b) counts.(a))
  |> List.filteri (fun i _ -> i < max 1 (n / 4))

let median values =
  let sorted = Array.of_list values in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  if n = 0 then nan
  else if n mod 2 = 1 then sorted.(n / 2)
  else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

type scrape = (string, float) Hashtbl.t

(* Sample values by exposition name ([nf2_] prefix, dots as
   underscores), summed over label sets. *)
let parse_scrape text : scrape =
  match Obs.Registry.parse_prometheus text with
  | Error msg -> failwith ("nf2bench: bad metrics scrape: " ^ msg)
  | Ok samples ->
    let table = Hashtbl.create 256 in
    List.iter
      (fun { Obs.Registry.s_name; s_value; _ } ->
        let sum = Option.value ~default:0. (Hashtbl.find_opt table s_name) in
        Hashtbl.replace table s_name (sum +. s_value))
      samples;
    table

let series name = "nf2_" ^ String.map (fun c -> if c = '.' then '_' else c) name

let get (scrape : scrape) name =
  Option.value ~default:0. (Hashtbl.find_opt scrape (series name))

let delta before after name = get after name -. get before name

(* [num / den], 0 when nothing happened. *)
let ratio num den = if den = 0. then 0. else num /. den

(* Mean of a histogram's observations between two scrapes. *)
let hist_mean before after name =
  ratio (delta before after (name ^ "_sum")) (delta before after (name ^ "_count"))
