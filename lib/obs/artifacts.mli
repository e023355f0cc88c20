(** Run artifact sets: save the live observability state to a
    directory, reload it later for offline analysis and cross-run diff.

    One directory per run — [meta.txt] (key=value), [openmetrics.txt]
    (exposition snapshot), [hist.csv], [breakdown.csv], [spans.csv],
    [journal.txt] (digest) and a rendered [timeline.txt] — is the unit
    [fractos analyze] and [fractos diff] operate on. All formats are
    line-oriented text this repo already emits elsewhere, so loading
    needs no external parsers. *)

val save : dir:string -> meta:(string * string) list -> unit -> unit
(** Snapshot the live registries (metrics, histograms, spans, journal,
    breakdown, timeline) into [dir], creating it if needed. Must run
    where the collectors were populated. *)

type hist = {
  h_node : string;
  h_name : string;
  h_count : float;
  h_mean : float;
  h_p50 : float;
  h_p95 : float;
  h_p99 : float;
  h_max : float;
}

type t = {
  a_dir : string;
  a_meta : (string * string) list;
  a_series : (string * float) list;
      (** OpenMetrics samples: ["family{labels}"] -> value *)
  a_hists : hist list;
  a_breakdown : (string * float) list;  (** category -> summed ns *)
  a_requests : int;  (** analyzed request roots in the breakdown *)
  a_journal : (string * int) list;
  a_spans : Timeline.row list;
}

val load : string -> (t, string) result
(** Missing member files load as empty; a directory without [meta.txt]
    is rejected as not an artifact set. *)

val pp : Format.formatter -> t -> unit
(** The [fractos analyze DIR] view: meta, breakdown shares, journal
    digest, slowest histograms, per-resource timeline. *)
