/* generated by repro.native — do not edit
 * model: rates
 * dt: 0.001  solver: euler  template: v2
 * bit-exact mirror of repro.model.engine reference passes
 */
#include <math.h>
#include <string.h>

#define DT 0x1.0624dd2f1a9fcp-10
#define NSIG 5
#define NSTATE 1
#define NDW 1
#define NHELD 0

/* Per-instance context.  Every buffer is owned by the caller and only
 * borrowed here: the TU keeps no mutable file-scope state, so any
 * number of simulators (on any threads) can share one loaded library. */
typedef struct {
  double *S;   /* signals [NSIG] */
  double *X;   /* continuous state [NSTATE] */
  double *DW;  /* discrete work [NDW] */
  double *W;   /* integrator scratch [5 * NSTATE]: X0 K1 K2 K3 K4 */
  double *H[1];  /* held outputs, written between steps */
} nx_ctx;

#define NX_LOCALS \
  double *S = c->S; double *X = c->X; double *DW = c->DW; \
  (void)S; (void)X; (void)DW

static void out_major(const nx_ctx *c, long long step, double t)
{
  NX_LOCALS;
  (void)step; (void)t;
  if (step % 2 == 0) {
    { /* pi */
      S[0] = DW[0];
    }
  }
  if (step % 5 == 0) {
    { /* hold */
      S[1] = S[0];
    }
  }
  { /* plant */
    double v1 = X[0];
    double v2 = S[1];
    S[2] = 0x1.4000000000000p+4 * v1 + 0x0.0p+0 * v2;
  }
  { /* src */
    S[3] = (t >= 0x0.0p+0) ? 0x1.0000000000000p+0 : 0x0.0p+0;
  }
  S[4] = S[3] - S[2];
}

static void out_minor(const nx_ctx *c, double t)
{
  NX_LOCALS;
  (void)t;
  { /* plant */
    double v3 = X[0];
    double v4 = S[1];
    S[2] = 0x1.4000000000000p+4 * v3 + 0x0.0p+0 * v4;
  }
  { /* src */
    S[3] = (t >= 0x0.0p+0) ? 0x1.0000000000000p+0 : 0x0.0p+0;
  }
  S[4] = S[3] - S[2];
}

static void upd(const nx_ctx *c, long long step, double t)
{
  NX_LOCALS;
  (void)step; (void)t;
  if (step % 2 == 0) {
    { /* pi */
      double v5 = DW[0] + 0x1.47ae147ae147bp-5 * S[4];
      double v6 = ((-INFINITY) > v5) ? (-INFINITY) : v5;
      double v7 = (INFINITY < v6) ? INFINITY : v6;
      DW[0] = v7;
    }
  }
}

static void deriv(const nx_ctx *c, double t, double *XD)
{
  NX_LOCALS;
  (void)t;
  { /* plant */
    XD[0] = (-0x1.4000000000000p+4) * X[0] + 0x1.0000000000000p+0 * S[1];
  }
}

static void integrate(const nx_ctx *c, double t)
{
  int i;
  double *X = c->X, *K1 = c->W + NSTATE;
  deriv(c, t, K1);
  for (i = 0; i < NSTATE; i++) X[i] = X[i] + DT * K1[i];
}

void nx_out_major(const nx_ctx *c, long long step)
{
  out_major(c, step, (double)step * DT);
}

void nx_finish(const nx_ctx *c, long long step)
{
  double t = (double)step * DT;
  upd(c, step, t);
  integrate(c, t);
}

void nx_run(const nx_ctx *c, long long start, long long n, double *scope_out, double *trace_out)
{
  const double *S = c->S;
  long long i;
  for (i = 0; i < n; i++) {
    long long step = start + i;
    double t = (double)step * DT;
    out_major(c, step, t);
    scope_out[i * 1 + 0] = S[2];
    if (trace_out) memcpy(trace_out + i * NSIG, S, sizeof(double) * NSIG);
    upd(c, step, t);
    integrate(c, t);
  }
}
