/* generated by repro.native — do not edit
 * model: h
 * dt: 0.001  solver: rk4  template: v7
 * bit-exact mirror of repro.model.engine reference passes
 */
#include <math.h>
#include <string.h>

#define DT 0x1.0624dd2f1a9fcp-10
#define NSIG 4
#define NSTATE 1
#define NDW 0
#define NPARAM 15
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
  { /* b */
    double v1 = X[0];
    double v2 = S[1];
    S[0] = P[0] * v1 + P[1] * v2;
  }
  { /* d0 */
    S[1] = P[2] + P[3] * sin(P[4] * t + P[5]);
  }
  { /* d1 */
    S[2] = t;
  }
  S[3] = P[6];
}

static void out_minor(const nx_ctx *c, double t, int full)
{
  NX_LOCALS;
  (void)t; (void)full;
  if (full) {
    { /* b */
      double v3 = X[0];
      double v4 = S[1];
      S[0] = P[7] * v3 + P[8] * v4;
    }
  }
  { /* d0 */
    S[1] = P[9] + P[10] * sin(P[11] * t + P[12]);
  }
  if (full) {
    { /* d1 */
      S[2] = t;
    }
  }
}

static void upd(const nx_ctx *c, long long step, double t)
{
  NX_LOCALS;
  (void)step; (void)t;
}

static void deriv(const nx_ctx *c, double t, double *XD)
{
  NX_LOCALS;
  (void)t;
  { /* b */
    XD[0] = P[13] * X[0] + P[14] * S[1];
  }
}

static void integrate(const nx_ctx *c, double t, int full)
{
  int i;
  double *X = c->X, *X0 = c->W;
  double *K1 = X0 + NSTATE, *K2 = K1 + NSTATE, *K3 = K2 + NSTATE, *K4 = K3 + NSTATE;
  double half_dt = 0.5 * DT;
  double half = t + half_dt;
  double sixth = DT / 6.0;
  for (i = 0; i < NSTATE; i++) X0[i] = X[i];
  deriv(c, t, K1);
  for (i = 0; i < NSTATE; i++) X[i] = X0[i] + half_dt * K1[i];
  out_minor(c, half, 0);
  deriv(c, half, K2);
  for (i = 0; i < NSTATE; i++) X[i] = X0[i] + half_dt * K2[i];
  out_minor(c, half, 0);
  deriv(c, half, K3);
  for (i = 0; i < NSTATE; i++) X[i] = X0[i] + DT * K3[i];
  out_minor(c, t + DT, full);
  deriv(c, t + DT, K4);
  for (i = 0; i < NSTATE; i++)
    X[i] = X0[i] + sixth * (K1[i] + 2.0 * K2[i] + 2.0 * K3[i] + K4[i]);
}

void nx_run(const nx_ctx *c, long long start, long long n, double *scope_out, double *trace_out)
{
  const double *S = c->S;
  long long i;
  for (i = 0; i < n; i++) {
    long long step = start + i;
    double t = (double)step * DT;
    out_major(c, step, t);
    scope_out[i * 1 + 0] = S[0];
    if (trace_out) memcpy(trace_out + i * NSIG, S, sizeof(double) * NSIG);
    upd(c, step, t);
    integrate(c, t, i == n - 1);
  }
}
/* P[0] = 0x1.9000000000000p+6  b */
/* P[1] = 0x0.0p+0  b */
/* P[2] = 0x0.0p+0  d0 */
/* P[3] = 0x1.0000000000000p+1  d0 */
/* P[4] = 0x1.3a28c59d5433bp+7  d0 */
/* P[5] = 0x0.0p+0  d0 */
/* P[6] = 0x1.0000000000000p-1  d2 */
/* P[7] = 0x1.9000000000000p+6  b */
/* P[8] = 0x0.0p+0  b */
/* P[9] = 0x0.0p+0  d0 */
/* P[10] = 0x1.0000000000000p+1  d0 */
/* P[11] = 0x1.3a28c59d5433bp+7  d0 */
/* P[12] = 0x0.0p+0  d0 */
/* P[13] = -0x1.9000000000000p+6  b */
/* P[14] = 0x1.0000000000000p+0  b */
