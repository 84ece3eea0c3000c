(** Descriptive statistics for experiment reporting: streaming moments,
    quantiles, confidence intervals and least-squares fits
    (including the [a * log n + b] fits used to check the O(log n)
    flooding-time theorems). *)

(** {1 Streaming accumulator} *)

module Acc : sig
  type t
  (** Welford accumulator for count / mean / variance / min / max. *)

  val create : unit -> t
  val add : t -> float -> unit
  val add_int : t -> int -> unit
  val count : t -> int
  val mean : t -> float
  (** Mean; [nan] when empty. *)

  val variance : t -> float
  (** Unbiased sample variance; [nan] when count < 2. *)

  val stddev : t -> float
  val min : t -> float
  val max : t -> float
  val stderr_mean : t -> float
  (** Standard error of the mean. *)

  val ci95 : t -> float * float
  (** Normal-approximation 95% confidence interval for the mean. *)

  val merge : t -> t -> t
  (** Combine two accumulators (parallel composition).  The result is
      always a fresh accumulator — never an alias of either input — so
      adding to it cannot mutate the arguments. *)
end

(** {1 Batch helpers} *)

val mean : float array -> float
val variance : float array -> float
val stddev : float array -> float
val median : float array -> float
val quantile : float array -> float -> float
(** [quantile xs q] with linear interpolation; [q] in [0,1].  Does not
    mutate its argument. *)

val fraction_where : ('a -> bool) -> 'a array -> float
(** Fraction of elements satisfying the predicate; [nan] when empty. *)

(** {1 Fits} *)

type fit = { slope : float; intercept : float; r2 : float }

val linear_fit : (float * float) array -> fit
(** Ordinary least squares y = slope * x + intercept. *)

val log_fit : (float * float) array -> fit
(** Fit y = slope * ln x + intercept (checks O(log n) scalings).
    All x must be positive. *)

val pearson : (float * float) array -> float
(** Correlation coefficient. *)

(** {1 Hypothesis helpers} *)

val binomial_ci95 : successes:int -> trials:int -> float * float
(** Wilson-score 95% interval for a proportion. *)

val chi_square_uniform : int array -> float
(** Chi-square statistic of observed counts against the uniform law. *)

val ks_statistic : float array -> (float -> float) -> float
(** One-sample Kolmogorov-Smirnov statistic: sup |F_empirical - F| for a
    given CDF [F].  Does not mutate its argument.  For n samples, values
    around [1.36 / sqrt n] correspond to the 5% critical level. *)
