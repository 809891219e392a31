/* generated by repro.native — do not edit
 * model: rates
 * dt: 0.001  solver: euler  template: v7
 * bit-exact mirror of repro.model.engine reference passes
 */
#include <math.h>
#include <string.h>

#define DT 0x1.0624dd2f1a9fcp-10
#define NSIG 5
#define NSTATE 1
#define NDW 1
#define NPARAM 17
#define NHELD 0

/* Per-instance context.  Every buffer is owned by the caller and only
 * borrowed here: the TU keeps no mutable file-scope state, so any
 * number of simulators (on any threads) can share one loaded library. */
typedef struct {
  double *S;   /* signals [NSIG] */
  double *X;   /* continuous state [NSTATE] */
  double *DW;  /* discrete work [NDW] */
  double *W;   /* integrator scratch [5 * NSTATE]: X0 K1 K2 K3 K4 */
  const double *P;  /* block parameters [NPARAM] */
  double *H[1];  /* held outputs, written between steps */
} nx_ctx;

#define NX_LOCALS \
  double *S = c->S; double *X = c->X; double *DW = c->DW; \
  const double *P = c->P; \
  (void)S; (void)X; (void)DW; (void)P

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
    S[2] = P[0] * v1 + P[1] * v2;
  }
  { /* src */
    S[3] = (t >= P[2]) ? P[3] : P[4];
  }
  S[4] = S[3] - S[2];
}

static void out_minor(const nx_ctx *c, double t, int full)
{
  NX_LOCALS;
  (void)t; (void)full;
  if (full) {
    { /* plant */
      double v3 = X[0];
      double v4 = S[1];
      S[2] = P[5] * v3 + P[6] * v4;
    }
    { /* src */
      S[3] = (t >= P[7]) ? P[8] : P[9];
    }
    S[4] = S[3] - S[2];
  }
}

static void upd(const nx_ctx *c, long long step, double t)
{
  NX_LOCALS;
  (void)step; (void)t;
  if (step % 2 == 0) {
    { /* pi */
      double v5 = DW[0] + P[10] * S[4];
      double v6 = (P[11] > v5) ? P[12] : v5;
      double v7 = (P[13] < v6) ? P[14] : v6;
      DW[0] = v7;
    }
  }
}

static void deriv(const nx_ctx *c, double t, double *XD)
{
  NX_LOCALS;
  (void)t;
  { /* plant */
    XD[0] = P[15] * X[0] + P[16] * S[1];
  }
}

static void integrate(const nx_ctx *c, double t, int full)
{
  int i;
  (void)full;
  double *X = c->X, *K1 = c->W + NSTATE;
  deriv(c, t, K1);
  for (i = 0; i < NSTATE; i++) X[i] = X[i] + DT * K1[i];
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
    integrate(c, t, i == n - 1);
  }
}
/* P[0] = 0x1.4000000000000p+4  plant */
/* P[1] = 0x0.0p+0  plant */
/* P[2] = 0x0.0p+0  src */
/* P[3] = 0x1.0000000000000p+0  src */
/* P[4] = 0x0.0p+0  src */
/* P[5] = 0x1.4000000000000p+4  plant */
/* P[6] = 0x0.0p+0  plant */
/* P[7] = 0x0.0p+0  src */
/* P[8] = 0x1.0000000000000p+0  src */
/* P[9] = 0x0.0p+0  src */
/* P[10] = 0x1.47ae147ae147bp-5  pi */
/* P[11] = -inf  pi */
/* P[12] = -inf  pi */
/* P[13] = inf  pi */
/* P[14] = inf  pi */
/* P[15] = -0x1.4000000000000p+4  plant */
/* P[16] = 0x1.0000000000000p+0  plant */
