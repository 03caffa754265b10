"""The fused single-track vehicle model, generated by socenv.vehicle_codegen.

Do not edit: change the derivation in ``vehicle_codegen.py`` and regenerate,
from the repository root, with

    python src/socenv/vehicle_codegen.py

Every function takes and returns plain floats; a structural zero comes back as
the int 0. The arguments are the state vx, vy, r, s, w, th, wp, thp, dl, tr,
the input u1 (t_r rate) and u2 (steering rate), the curvature kap, the fusion
weight lam, and last the physical parameters of ``VehicleParams`` named in
``PARAMS``.

* ``f(*x, *u, kap, lam, *params)``: the 10 state derivatives.
* ``jac(*x, *u, kap, lam, dkap, *params)``: df/dx (10x10) then df/du (10x2),
  each row by row, with df/dkap * dkap (dkap = dkappa/ds) added to the
  s-column.
* ``hess(*x, *u, kap, lam, dkap, *mult, *params)``: the upper triangle of the
  Hessian over (x, u) of mult' f, row by row, with kappa'' taken as 0.
"""

from math import atan, cos, sin, sqrt, tan, tanh

PARAMS = ('mass', 'inertia_z', 'l_f', 'l_r', 'c_alpha_f', 'c_alpha_r', 'a_max',
          'drive_split', 'roll_resist', 'drag_coeff', 'v_eps')


def f(vx, vy, r, s, w, th, wp, thp, dl, tr, u1, u2, kap, lam, mass, inertia_z,
      l_f, l_r, c_alpha_f, c_alpha_r, a_max, drive_split, roll_resist,
      drag_coeff, v_eps):
    t0 = 1 - lam
    t1 = 1/mass
    t2 = roll_resist*tanh(vx/v_eps)
    t3 = sqrt(v_eps**2 + vx**2)
    t4 = drag_coeff*t3*vx
    t5 = t1*(a_max*mass*tr - t2 - t4)
    t6 = mass*r
    t7 = cos(dl)
    t8 = a_max*mass*tr
    t9 = drive_split*t8
    t10 = sin(dl)
    t11 = 1/t3
    t12 = c_alpha_f*(dl - atan(t11*(l_f*r + vy)))
    t13 = lam*t1
    t14 = tan(dl)
    t15 = 1/(l_f + l_r)
    t16 = t0*t15
    t17 = t16*(t14*t5 + u2*vx/t7**2)
    t18 = c_alpha_r*atan(t11*(-l_r*r + vy))
    t19 = t10*t9 + t12*t7
    t20 = cos(th)
    t21 = sin(th)
    t22 = (t20*vx - t21*vy)/(-kap*w + 1)
    t23 = t20*vy + t21*vx
    t24 = kap*t22
    t25 = vx*sin(thp) + vy*cos(thp)
    return [
        t0*t5 + t13*(-t10*t12 - t2 - t4 + t6*vy + t7*t9 + t8*(1 - drive_split)),
        l_r*t17 + t13*(-t18 + t19 - t6*vx),
        t17 + lam*(l_f*t19 + l_r*t18)/inertia_z,
        lam*t22 + t0*t22,
        lam*t23 + t0*t23,
        lam*(r - t24) + t0*(t14*t15*vx - t24),
        lam*t25 + t0*t25,
        lam*r + t14*t16*vx,
        lam*u2 + t0*u2,
        lam*u1 + t0*u1,
    ]


def jac(vx, vy, r, s, w, th, wp, thp, dl, tr, u1, u2, kap, lam, dkap, mass,
        inertia_z, l_f, l_r, c_alpha_f, c_alpha_r, a_max, drive_split,
        roll_resist, drag_coeff, v_eps):
    t0 = 1 - lam
    t1 = 1/mass
    t2 = vx**2
    t3 = t2 + v_eps**2
    t4 = sqrt(t3)
    t5 = drag_coeff*t4
    t6 = 1/t4
    t7 = 1/v_eps
    t8 = tanh(t7*vx)
    t9 = drag_coeff*t2*t6 + roll_resist*t7*(1 - t8**2) + t5
    t10 = -t1*t9
    t11 = sin(dl)
    t12 = c_alpha_f*t11
    t13 = l_f*r + vy
    t14 = 1/t3
    t15 = 1/(t13**2*t14 + 1)
    t16 = vx/t3**(3/2)
    t17 = t13*t15*t16
    t18 = lam*t1
    t19 = mass*r
    t20 = t15*t6
    t21 = t12*t20
    t22 = a_max*mass
    t23 = t22*tr
    t24 = drive_split*t11
    t25 = dl - atan(t13*t6)
    t26 = cos(dl)
    t27 = c_alpha_f*t26
    t28 = a_max*t0
    t29 = drive_split*t26
    t30 = t26**(-2)
    t31 = tan(dl)
    t32 = 1/(l_f + l_r)
    t33 = t0*t32
    t34 = t33*(t10*t31 + t30*u2)
    t35 = -l_r*r + vy
    t36 = 1/(t14*t35**2 + 1)
    t37 = c_alpha_r*t36
    t38 = t16*t35*t37
    t39 = t17*t27
    t40 = t37*t6
    t41 = t20*t27
    t42 = -c_alpha_r*l_r*t36*t6 + l_f*t41
    t43 = -t12*t25 + t23*t29 + t27
    t44 = t31**2 + 1
    t45 = t33*(t1*t44*(a_max*mass*tr - roll_resist*t8 - t5*vx) + 2*t11*u2*vx/t26**3)
    t46 = t31*t32
    t47 = t28*t46
    t48 = lam/inertia_z
    t49 = l_f*t48
    t50 = kap*w
    t51 = 1 - t50
    t52 = 1/t51
    t53 = cos(th)
    t54 = lam*t53
    t55 = t52*t54
    t56 = t0*t53
    t57 = sin(th)
    t58 = lam*t57
    t59 = t52*t58
    t60 = t0*t57
    t61 = t52*t60
    t62 = t53*vx - t57*vy
    t63 = lam*t62
    t64 = t51**(-2)
    t65 = t64*w
    t66 = t0*t62
    t67 = kap*t64
    t68 = t52*(-t53*vy - t57*vx)
    t69 = lam*t68
    t70 = t0*t68
    t71 = -t50*t62*t64 - t52*t62
    t72 = kap**2*t64
    t73 = t33*vx
    t74 = t44*t73
    t75 = sin(thp)
    t76 = cos(thp)
    t77 = -t75*vy + t76*vx
    t78 = t30*t73
    return [
        t0*t10 + t18*(-t12*t17 - t9),
        t18*(t19 + t21),
        t18*(l_f*t21 + mass*vy),
        0,
        0,
        0,
        0,
        0,
        t18*(-t12 - t23*t24 - t25*t27),
        t18*(t22*t29 + t22*(1 - drive_split)) + t28,
        l_r*t34 + t18*(-t19 + t38 + t39),
        t18*(-t40 - t41),
        t18*(-mass*vx - t42),
        0,
        0,
        0,
        0,
        0,
        l_r*t45 + t18*t43,
        a_max*lam*t24 + l_r*t47,
        t34 + t48*(l_f*t39 - l_r*t38),
        -t42*t48,
        t48*(-l_f**2*t41 - l_r**2*t40),
        0,
        0,
        0,
        0,
        0,
        t43*t49 + t45,
        t22*t24*t49 + t47,
        t52*t56 + t55,
        -t59 - t61,
        0,
        dkap*(t63*t65 + t65*t66),
        t63*t67 + t66*t67,
        t69 + t70,
        0,
        0,
        0,
        0,
        t58 + t60,
        t54 + t56,
        0,
        0,
        0,
        t63 + t66,
        0,
        0,
        0,
        0,
        -kap*t55 + t0*(-kap*t52*t53 + t31*t32),
        kap*t59 + kap*t61,
        lam,
        dkap*(lam*t71 + t0*t71),
        -t63*t72 - t66*t72,
        -kap*t69 - kap*t70,
        0,
        0,
        t74,
        0,
        lam*t75 + t0*t75,
        lam*t76 + t0*t76,
        0,
        0,
        0,
        0,
        0,
        lam*t77 + t0*t77,
        0,
        0,
        t0*t46,
        0,
        lam,
        0,
        0,
        0,
        0,
        0,
        t74,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        l_r*t78,
        0,
        t78,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        1,
        1,
        0,
    ]


def hess(vx, vy, r, s, w, th, wp, thp, dl, tr, u1, u2, kap, lam, dkap, m0, m1,
         m2, m3, m4, m5, m6, m7, m8, m9, mass, inertia_z, l_f, l_r, c_alpha_f,
         c_alpha_r, a_max, drive_split, roll_resist, drag_coeff, v_eps):
    t0 = 1/mass
    t1 = 1 - lam
    t2 = v_eps**2
    t3 = vx**2
    t4 = t2 + t3
    t5 = sqrt(t4)
    t6 = 1/t5
    t7 = drag_coeff*t6
    t8 = t4**(-3/2)
    t9 = 1/v_eps
    t10 = tanh(t9*vx)
    t11 = 1 - t10**2
    t12 = roll_resist*t10
    t13 = drag_coeff*t8*vx**3 + 2*t11*t12/t2 - 3*t7*vx
    t14 = t0*t1*t13
    t15 = l_f*r
    t16 = t15 + vy
    t17 = t16**2
    t18 = 1/t4
    t19 = t17*t18 + 1
    t20 = 1/t19
    t21 = c_alpha_f*t8
    t22 = t20*t21
    t23 = sin(dl)
    t24 = t16*t23
    t25 = t22*t24
    t26 = t19**(-2)
    t27 = 2*c_alpha_f
    t28 = t23*t27
    t29 = t26*t28
    t30 = t4**(-7/2)
    t31 = t16**3
    t32 = t3*t30*t31
    t33 = t4**(-5/2)
    t34 = c_alpha_f*t33
    t35 = 3*t20*t3
    t36 = lam*t0
    t37 = 1/(l_f + l_r)
    t38 = tan(dl)
    t39 = t14*t37*t38
    t40 = l_r*r
    t41 = -t40 + vy
    t42 = t41**2
    t43 = t18*t42 + 1
    t44 = 1/t43
    t45 = c_alpha_r*t8
    t46 = t44*t45
    t47 = t41*t46
    t48 = cos(dl)
    t49 = t22*t48
    t50 = t16*t49
    t51 = c_alpha_r*t3
    t52 = t33*t41
    t53 = t16*t34
    t54 = t35*t48*t53
    t55 = t43**(-2)
    t56 = 2*t55
    t57 = t30*t41**3*t51*t56
    t58 = t27*t48
    t59 = t26*t58
    t60 = lam/inertia_z
    t61 = t22*t23*vx
    t62 = 2*t15 + 2*vy
    t63 = m0*t36
    t64 = t46*vx
    t65 = t49*vx
    t66 = t55*(-2*t40 + 2*vy)
    t67 = c_alpha_r*vx
    t68 = t52*t66*t67
    t69 = t26*t62
    t70 = t48*t69
    t71 = t53*t70*vx
    t72 = m1*t36
    t73 = l_r*t64
    t74 = m2*t60
    t75 = t17*t33*t59*vx
    t76 = l_r**2
    t77 = l_f**2
    t78 = cos(th)
    t79 = lam*t78
    t80 = kap*w
    t81 = 1 - t80
    t82 = t81**(-2)
    t83 = t82*w
    t84 = t1*t78
    t85 = dkap*m3
    t86 = 1/t81
    t87 = t78*t86
    t88 = lam*t87
    t89 = t80*t82
    t90 = dkap*m5
    t91 = kap*t82
    t92 = kap**2
    t93 = t82*t92
    t94 = sin(th)
    t95 = lam*t94
    t96 = t86*t95
    t97 = t1*t94
    t98 = t86*t97
    t99 = t96 + t98
    t100 = cos(thp)
    t101 = t38**2
    t102 = t101 + 1
    t103 = t1*t37
    t104 = t102*t103
    t105 = t25*vx
    t106 = 2*u2
    t107 = t23/t48**3
    t108 = drag_coeff*t5
    t109 = t0*t102*(-roll_resist*t11*t9 - t108 - t3*t7) + t106*t107
    t110 = l_f*t60
    t111 = t48**(-2)
    t112 = t103*t111
    t113 = l_r*m1
    t114 = t45*t66
    t115 = t21*t70
    t116 = t16*t8
    t117 = t41*t45
    t118 = t116*t59
    t119 = t117*t56
    t120 = t118*t77 + t119*t76
    t121 = t1*t87
    t122 = sin(thp)
    t123 = c_alpha_f*t20*t6
    t124 = t123*t48*t63
    t125 = t123*t23
    t126 = t125*t72
    t127 = t125*t74
    t128 = dkap**2
    t129 = t78*vx - t94*vy
    t130 = 2*t129/t81**3
    t131 = t130*w**2
    t132 = t129*t82
    t133 = 2*t132
    t134 = -kap*t131 - t133*w
    t135 = t130*t80
    t136 = t130*t92
    t137 = -kap*t133 - t136*w
    t138 = -t78*vy - t94*vx
    t139 = lam*t138
    t140 = t1*t138
    t141 = -t138*t86 - t138*t89
    t142 = kap**3*t130
    t143 = -t129*t86
    t144 = lam*t143
    t145 = t1*t143
    t146 = -t100*vy - t122*vx
    t147 = t38*(2*t101 + 2)
    t148 = t103*vx
    t149 = t147*t148
    t150 = a_max*mass
    t151 = t150*tr
    t152 = drive_split*t48
    t153 = dl - atan(t16*t6)
    t154 = drive_split*t23
    t155 = -c_alpha_f*t153*t48 - t151*t154 - t28
    t156 = t103*(t0*t147*(a_max*mass*tr - t108*vx - t12) + t106*t111*vx + 6*t23**2*u2*vx/t48**4)
    t157 = a_max*lam
    t158 = a_max*t104
    t159 = 2*t107*t148
    return [
        m0*(t14 + t36*(t13 + t24*t34*t35 - t25 - t29*t32)) + m1*(l_r*t39 + t36*(t32*t59 - 3*t44*t51*t52 + t47 + t50 - t54 + t57)) + m2*(t39 + t60*(c_alpha_f*l_f*t16*t20*t48*t8 + 2*c_alpha_f*l_f*t26*t3*t30*t31*t48 + 3*c_alpha_r*l_r*t3*t33*t41*t44 - l_f*t54 - l_r*t47 - l_r*t57)),
        t63*(c_alpha_f*t16*t23*t26*t33*t62*vx - t61) + t72*(t64 + t65 - t68 - t71) + t74*(l_f*t65 - l_f*t71 + l_r*t68 - t73),
        t63*(2*c_alpha_f*l_f*t17*t23*t26*t33*vx - l_f*t61) + t72*(c_alpha_f*l_f*t20*t48*t8*vx + 2*c_alpha_r*l_r*t33*t42*t55*vx - l_f*t75 - mass - t73) + t74*(-t33*t42*t56*t67*t76 + t64*t76 + t65*t77 - t75*t77),
        t85*(t79*t83 + t83*t84) + t90*(t1*(-t78*t89 - t87) - t79*t89 - t88),
        m3*(t79*t91 + t84*t91) + m5*(-t79*t93 - t84*t93),
        -m3*t99 + m4*(t79 + t84) + m5*(kap*t96 + kap*t98),
        0,
        m6*(lam*t100 + t1*t100),
        m1*(l_r*t1*t109*t37 - t105*t36) + m2*(t1*t109*t37 - t105*t110) + m5*t104 + m7*t104 - t50*t63*vx,
        0,
        0,
        m2*t112 + t112*t113,
        -t21*t23*t63*t69 + t72*(t114 + t115) + t74*(l_f*t115 - l_r*t114),
        t120*t74 + t63*(-l_f*t116*t29 + mass) + t72*(l_f*t118 - l_r*t117*t56),
        t85*(-t83*t95 - t83*t97) + t90*(t89*t95 + t89*t97 + t99),
        m3*(-t91*t95 - t91*t97) + m5*(t93*t95 + t93*t97),
        m3*(-t121 - t88) + m4*(-t95 - t97) + m5*(kap*t121 + kap*t88),
        0,
        m6*(-lam*t122 - t1*t122),
        l_f*t127 + t124 + t126,
        0,
        0,
        0,
        -t116*t29*t63*t77 + t120*t72 + t74*(l_f**3*t118 - l_r**3*t119),
        0,
        0,
        0,
        0,
        0,
        l_f*t124 + l_f*t126 + t127*t77,
        0,
        0,
        0,
        m3*t128*(lam*t131 + t1*t131) + m5*t128*(lam*t134 + t1*t134),
        t85*(lam*t132 + lam*t135 + t1*t132 + t1*t135) + t90*(lam*t137 + t1*t137),
        t85*(t139*t83 + t140*t83) + t90*(lam*t141 + t1*t141),
        0,
        0,
        0,
        0,
        0,
        0,
        m3*(lam*t136 + t1*t136) + m5*(-lam*t142 - t1*t142),
        m3*(t139*t91 + t140*t91) + m5*(-t139*t93 - t140*t93),
        0,
        0,
        0,
        0,
        0,
        0,
        m3*(t144 + t145) + m4*(t139 + t140) + m5*(-kap*t144 - kap*t145),
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        0,
        m6*(lam*t146 + t1*t146),
        0,
        0,
        0,
        0,
        m1*(l_r*t156 + t155*t36) + m2*(t110*t155 + t156) + m5*t149 + m7*t149 + t63*(c_alpha_f*t153*t23 - t151*t152 - t58),
        -m0*t154*t157 + m1*(l_r*t158 + t152*t157) + m2*(t110*t150*t152 + t158),
        0,
        m2*t159 + t113*t159,
        0,
        0,
        0,
        0,
        0,
        0,
    ]
