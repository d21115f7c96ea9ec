//! Bit-exact, inlinable clones of the two libm calls on the pattern
//! synthesis hot path: `f64::log10` and `f64::hypot`.
//!
//! # Why
//!
//! Every synthesized pattern sample ends in `field.abs()` (= `hypot`) and
//! `10·log10(af_power)`. Through std these are PLT calls into glibc — they
//! cannot inline, they serialize the surrounding loop, and they cost
//! ~6.4 ns / ~13.4 ns each. The clones below compute the *same bits* while
//! inlining into the chunked SoA loops of [`crate::array`], which restores
//! instruction-level parallelism across independent angle samples.
//!
//! # Why the bits match
//!
//! These are faithful transcriptions of the exact code paths glibc executes
//! on the build machines we target:
//!
//! * `log10` (sysdeps/ieee754/dbl-64/e_log10.c): mantissa/exponent split,
//!   then `__log`'s table-driven core — glibc's ifunc resolves `__log` to
//!   its FMA variant on any AVX2/FMA machine, and [`log_inner`] transcribes
//!   that variant's instruction stream (including every fused
//!   multiply-add, via `f64::mul_add`, which is exact by IEEE-754).
//! * `hypot` (sysdeps/ieee754/dbl-64/e_hypot.c, glibc ≥ 2.35): a single
//!   non-ifunc implementation; the rare extreme-magnitude scaling paths are
//!   delegated straight to std.
//!
//! The clones are the one implementation; std is only the reference the
//! tests compare against. The differential tests in this module check
//! clone against std bit-for-bit over random bit patterns and dense
//! sweeps of the domains synthesis hits, and `tests/soa_equivalence.rs`
//! checks the fused tail against the reference synthesis, whose `log10`
//! is std's. The build targets x86-64-v3 (`.cargo/config.toml`), where
//! every `mul_add` is one exact FMA, so the clones compute the same bits
//! on every host. A host whose libm rounds differently keeps the clones'
//! bits and fails those tests, which is where such a mismatch should
//! surface.

// Coefficients and breakpoint table of glibc's FMA `__log` variant, captured
// bit-exactly from libm's .rodata. `A` is the polynomial of the table path,
// `B` the higher-order polynomial of the |x−1| < 0x1.09p-5 path.
const LN2HI: f64 = f64::from_bits(0x3FE62E42FEFA3800);
const LN2LO: f64 = f64::from_bits(0x3D2EF35793C76730);
const A: [f64; 5] = [
    f64::from_bits(0xBFE0000000000001),
    f64::from_bits(0x3FD555555551305B),
    f64::from_bits(0xBFCFFFFFFFEB4590),
    f64::from_bits(0x3FC999B324F10111),
    f64::from_bits(0xBFC55575E506C89F),
];
const B: [f64; 11] = [
    f64::from_bits(0xBFE0000000000000),
    f64::from_bits(0x3FD5555555555577),
    f64::from_bits(0xBFCFFFFFFFFFFDCB),
    f64::from_bits(0x3FC999999995DD0C),
    f64::from_bits(0xBFC55555556745A7),
    f64::from_bits(0x3FC24924A344DE30),
    f64::from_bits(0xBFBFFFFFA4423D65),
    f64::from_bits(0x3FBC7184282AD6CA),
    f64::from_bits(0xBFB999EB43B068FF),
    f64::from_bits(0x3FB78182F7AFD085),
    f64::from_bits(0xBFB5521375D145CD),
];
const IVLN10: f64 = f64::from_bits(0x3FDBCB7B1526E50E);
const LOG10_2HI: f64 = f64::from_bits(0x3FD34413509F6000);
const LOG10_2LO: f64 = f64::from_bits(0x3D59FEF311F12B36);
const TWO54: f64 = f64::from_bits(0x4350000000000000);
const OFF: u64 = 0x3fe6000000000000;

// (invc, logc) breakpoint pairs of glibc __log, captured bit-exactly.
const LOG_TAB: [(u64, u64); 128] = [
    (0x3FF734F0C3E0DE9F, 0xBFD7CC7F79E69000),
    (0x3FF713786A2CE91F, 0xBFD76FEEC20D0000),
    (0x3FF6F26008FAB5A0, 0xBFD713E31351E000),
    (0x3FF6D1A61F138C7D, 0xBFD6B85B38287800),
    (0x3FF6B1490BC5B4D1, 0xBFD65D5590807800),
    (0x3FF69147332F0CBA, 0xBFD602D076180000),
    (0x3FF6719F18224223, 0xBFD5A8CA86909000),
    (0x3FF6524F99A51ED9, 0xBFD54F4356035000),
    (0x3FF63356AA8F24C4, 0xBFD4F637C36B4000),
    (0x3FF614B36B9DDC14, 0xBFD49DA7FDA85000),
    (0x3FF5F66452C65C4C, 0xBFD445923989A800),
    (0x3FF5D867B5912C4F, 0xBFD3EDF439B0B800),
    (0x3FF5BABCCB5B90DE, 0xBFD396CE448F7000),
    (0x3FF59D61F2D91A78, 0xBFD3401E17BDA000),
    (0x3FF5805612465687, 0xBFD2E9E2EF468000),
    (0x3FF56397CEE76BD3, 0xBFD2941B3830E000),
    (0x3FF54725E2A77F93, 0xBFD23EC58CDA8800),
    (0x3FF52AFF42064583, 0xBFD1E9E129279000),
    (0x3FF50F22DBB2BDDF, 0xBFD1956D2B48F800),
    (0x3FF4F38F4734DED7, 0xBFD141679AB9F800),
    (0x3FF4D843CFDE2840, 0xBFD0EDD094EF9800),
    (0x3FF4BD3EC078A3C8, 0xBFD09AA518DB1000),
    (0x3FF4A27FC3E0258A, 0xBFD047E65263B800),
    (0x3FF4880524D48434, 0xBFCFEB224586F000),
    (0x3FF46DCE1B192D0B, 0xBFCF474A7517B000),
    (0x3FF453D9D3391854, 0xBFCEA4443D103000),
    (0x3FF43A2744B4845A, 0xBFCE020D44E9B000),
    (0x3FF420B54115F8FB, 0xBFCD60A22977F000),
    (0x3FF40782DA3EF4B1, 0xBFCCC00104959000),
    (0x3FF3EE8F5D57FE8F, 0xBFCC202956891000),
    (0x3FF3D5D9A00B4CE9, 0xBFCB81178D811000),
    (0x3FF3BD60C010C12B, 0xBFCAE2C9CCD3D000),
    (0x3FF3A5242B75DAB8, 0xBFCA45402E129000),
    (0x3FF38D22CD9FD002, 0xBFC9A877681DF000),
    (0x3FF3755BC5847A1C, 0xBFC90C6D69483000),
    (0x3FF35DCE49AD36E2, 0xBFC87120A645C000),
    (0x3FF34679984DD440, 0xBFC7D68FB4143000),
    (0x3FF32F5CCEFFCB24, 0xBFC73CB83C627000),
    (0x3FF3187775A10D49, 0xBFC6A39A9B376000),
    (0x3FF301C8373E3990, 0xBFC60B3154B7A000),
    (0x3FF2EB4EBB95F841, 0xBFC5737D76243000),
    (0x3FF2D50A0219A9D1, 0xBFC4DC7B8FC23000),
    (0x3FF2BEF9A8B7FD2A, 0xBFC4462C51D20000),
    (0x3FF2A91C7A0C1BAB, 0xBFC3B08ABC830000),
    (0x3FF293726014B530, 0xBFC31B996B490000),
    (0x3FF27DFA5757A1F5, 0xBFC2875490A44000),
    (0x3FF268B39B1D3BBF, 0xBFC1F3B9F879A000),
    (0x3FF2539D838FF5BD, 0xBFC160C8252CA000),
    (0x3FF23EB7AAC9083B, 0xBFC0CE7F57F72000),
    (0x3FF22A012BA940B6, 0xBFC03CDC49FEA000),
    (0x3FF2157996CC4132, 0xBFBF57BDBC4B8000),
    (0x3FF201201DD2FC9B, 0xBFBE370896404000),
    (0x3FF1ECF4494D480B, 0xBFBD17983EF94000),
    (0x3FF1D8F5528F6569, 0xBFBBF9674ED8A000),
    (0x3FF1C52311577E7C, 0xBFBADC79202F6000),
    (0x3FF1B17C74CB26E9, 0xBFB9C0C3E7288000),
    (0x3FF19E010C2C1AB6, 0xBFB8A646B372C000),
    (0x3FF18AB07BB670BD, 0xBFB78D01B3AC0000),
    (0x3FF1778A25EFBCB6, 0xBFB674F145380000),
    (0x3FF1648D354C31DA, 0xBFB55E0E6D878000),
    (0x3FF151B990275FDD, 0xBFB4485CDEA1E000),
    (0x3FF13F0EA432D24C, 0xBFB333D94D6AA000),
    (0x3FF12C8B7210F9DA, 0xBFB22079F8C56000),
    (0x3FF11A3028ECB531, 0xBFB10E4698622000),
    (0x3FF107FBDA8434AF, 0xBFAFFA6C6AD20000),
    (0x3FF0F5EE0F4E6BB3, 0xBFADDA8D4A774000),
    (0x3FF0E4065D2A9FCE, 0xBFABBCECE4850000),
    (0x3FF0D244632CA521, 0xBFA9A1894012C000),
    (0x3FF0C0A77CE2981A, 0xBFA788583302C000),
    (0x3FF0AF2F83C636D1, 0xBFA5715E67D68000),
    (0x3FF09DDB98A01339, 0xBFA35C8A49658000),
    (0x3FF08CABAF52E7DF, 0xBFA149E364154000),
    (0x3FF07B9F2F4E28FB, 0xBF9E72C082EB8000),
    (0x3FF06AB58C358F19, 0xBF9A55F152528000),
    (0x3FF059EEA5ECF92C, 0xBF963D62CF818000),
    (0x3FF04949CDD12C90, 0xBF9228FB8CAA0000),
    (0x3FF038C6C6F0ADA9, 0xBF8C317B20F90000),
    (0x3FF02865137932A9, 0xBF8419355DAA0000),
    (0x3FF0182427EA7348, 0xBF781203C2EC0000),
    (0x3FF008040614B195, 0xBF60040979240000),
    (0x3FEFE01FF726FA1A, 0x3F6FEFF384900000),
    (0x3FEFA11CC261EA74, 0x3F87DC41353D0000),
    (0x3FEF6310B081992E, 0x3F93CEA3C4C28000),
    (0x3FEF25F63CEEADCD, 0x3F9B9FC114890000),
    (0x3FEEE9C8039113E7, 0x3FA1B0D8CE110000),
    (0x3FEEAE8078CBB1AB, 0x3FA58A5BD001C000),
    (0x3FEE741AA29D0C9B, 0x3FA95C8340D88000),
    (0x3FEE3A91830A99B5, 0x3FAD276AEF578000),
    (0x3FEE01E009609A56, 0x3FB07598E598C000),
    (0x3FEDCA01E577BB98, 0x3FB253F5E30D2000),
    (0x3FED92F20B7C9103, 0x3FB42EDD8B380000),
    (0x3FED5CAC66FB5CCE, 0x3FB606598757C000),
    (0x3FED272CAA5EDE9D, 0x3FB7DA76356A0000),
    (0x3FECF26E3E6B2CCD, 0x3FB9AB434E1C6000),
    (0x3FECBE6DA2A77902, 0x3FBB78C7BB0D6000),
    (0x3FEC8B266D37086D, 0x3FBD431332E72000),
    (0x3FEC5894BD5D5804, 0x3FBF0A3171DE6000),
    (0x3FEC26B533BB9F8C, 0x3FC067152B914000),
    (0x3FEBF583EEECE73F, 0x3FC147858292B000),
    (0x3FEBC4FD75DB96C1, 0x3FC2266ECDCA3000),
    (0x3FEB951E0C864A28, 0x3FC303D7A6C55000),
    (0x3FEB65E2C5EF3E2C, 0x3FC3DFC33C331000),
    (0x3FEB374867C9888B, 0x3FC4BA366B7A8000),
    (0x3FEB094B211D304A, 0x3FC5933928D1F000),
    (0x3FEADBE885F2EF7E, 0x3FC66ACD2418F000),
    (0x3FEAAF1D31603DA2, 0x3FC740F8EC669000),
    (0x3FEA82E63FD358A7, 0x3FC815C0F51AF000),
    (0x3FEA5740EF09738B, 0x3FC8E92954F68000),
    (0x3FEA2C2A90AB4B27, 0x3FC9BB3602F84000),
    (0x3FEA01A01393F2D1, 0x3FCA8BED1C2C0000),
    (0x3FE9D79F24DB3C1B, 0x3FCB5B515C01D000),
    (0x3FE9AE2505C7B190, 0x3FCC2967CCBCC000),
    (0x3FE9852EF297CE2F, 0x3FCCF635D5486000),
    (0x3FE95CBAEEA44B75, 0x3FCDC1BD3446C000),
    (0x3FE934C69DE74838, 0x3FCE8C01B8CFE000),
    (0x3FE90D4F2F6752E6, 0x3FCF5509C0179000),
    (0x3FE8E6528EFFD79D, 0x3FD00E6C121FB800),
    (0x3FE8BFCE9FCC007C, 0x3FD071B80E93D000),
    (0x3FE899C0DABEC30E, 0x3FD0D46B9E867000),
    (0x3FE87427AA2317FB, 0x3FD13687334BD000),
    (0x3FE84F00ACB39A08, 0x3FD1980D67234800),
    (0x3FE82A49E8653E55, 0x3FD1F8FFE0CC8000),
    (0x3FE8060195F40260, 0x3FD2595FD7636800),
    (0x3FE7E22563E0A329, 0x3FD2B9300914A800),
    (0x3FE7BEB377DCB5AD, 0x3FD3187210436000),
    (0x3FE79BAA679725C2, 0x3FD377266DEC1800),
    (0x3FE77907F2170657, 0x3FD3D54FFBAF3000),
    (0x3FE756CADBD6130C, 0x3FD432EEE32FE000),
];

/// Core of glibc's `__log` (FMA variant): natural log of a mantissa-range
/// input. Private — callers go through [`log10`].
#[inline(always)]
fn log_inner(x: f64) -> f64 {
    let ix = x.to_bits();
    if ix.wrapping_sub(0x3fee000000000000) < 0x3090000000000 {
        // |x − 1| < 0x1.09p-5: dedicated near-1 path.
        if ix == 0x3ff0000000000000 {
            return 0.0;
        }
        let r = x - 1.0;
        let r2 = r * r;
        let r3 = r * r2;
        let p1 = r2.mul_add(B[3], B[2].mul_add(r, B[1]));
        let p2 = r2.mul_add(B[6], B[5].mul_add(r, B[4]));
        let p3 = r3.mul_add(B[10], r2.mul_add(B[9], B[8].mul_add(r, B[7])));
        let u = p3.mul_add(r3, p2).mul_add(r3, p1);
        // Split r into rhi + rlo (Dekker) so r² gets an exact correction.
        let c27 = f64::from_bits(0x41A0000000000000); // 0x1p27
        let t = r.mul_add(c27, r);
        let rhi = (-c27).mul_add(r, t);
        let rlo = r - rhi;
        let rhi2 = rhi * rhi;
        let hi = rhi2.mul_add(B[0], r);
        let lo = rhi2.mul_add(B[0], r - hi);
        let lo2 = (B[0] * rlo).mul_add(r + rhi, lo);
        return hi + u.mul_add(r3, lo2);
    }
    // Table path: x = 2^k · z, z ≈ c_i, log x = k·ln2 + log c_i + log(z/c_i).
    let tmp = ix.wrapping_sub(OFF);
    let i = ((tmp >> 45) & 127) as usize;
    let k = (tmp as i64) >> 52;
    let iz = ix.wrapping_sub(tmp & (0xfffu64 << 52));
    let z = f64::from_bits(iz);
    let (invc_b, logc_b) = LOG_TAB[i];
    let (invc, logc) = (f64::from_bits(invc_b), f64::from_bits(logc_b));
    let kd = k as f64;
    let r = z.mul_add(invc, -1.0);
    let w = kd.mul_add(LN2HI, logc);
    let hi = r + w;
    let lo = kd.mul_add(LN2LO, (w - hi) + r);
    let r2 = r * r;
    let r3 = r * r2;
    let q = A[2].mul_add(r, A[1]);
    let s = A[4].mul_add(r, A[3]);
    let lo2 = r2.mul_add(A[0], lo);
    let p = s.mul_add(r2, q);
    r3.mul_add(p, lo2) + hi
}

/// Clone of glibc `log10`: bit-identical to `x.log10()` on every input.
/// Non-positive, infinite and NaN inputs are delegated to std, which is
/// trivially bit-identical.
#[inline(always)]
pub fn log10(x: f64) -> f64 {
    let ix = x.to_bits();
    if x.is_nan() || x <= 0.0 || ix >= 0x7ff0000000000000 {
        return x.log10();
    }
    let mut k: i64 = 0;
    let mut hx = ix as i64;
    let mut x = x;
    if hx < 0x0010000000000000 {
        // Subnormal: renormalize via an exact power-of-two scale.
        k -= 54;
        x *= TWO54;
        hx = x.to_bits() as i64;
    }
    k += (hx >> 52) - 1023;
    let i = ((k as u64) >> 63) as i64;
    let mant = (hx as u64 & 0x000fffffffffffff) | (((0x3ff - i) as u64) << 52);
    let y = (k + i) as f64;
    let xr = f64::from_bits(mant);
    (IVLN10 * log_inner(xr) + y * LOG10_2LO) + y * LOG10_2HI
}

/// Clone of glibc `hypot` (≥ 2.35, Wilco Dijkstra's algorithm):
/// bit-identical to `x.hypot(y)` on every input. Non-finite inputs and the
/// extreme-magnitude scaling branches are delegated to std.
#[inline(always)]
pub fn hypot(x: f64, y: f64) -> f64 {
    if !x.is_finite() || !y.is_finite() {
        return x.hypot(y);
    }
    let mut ax = x.abs();
    let mut ay = y.abs();
    if ax < ay {
        std::mem::swap(&mut ax, &mut ay);
    }
    // |x| > 0x1p511 or 0 < |y| < 0x1p-459: glibc rescales; delegate.
    if ax > f64::from_bits(0x5FE0000000000000)
        || (ay < f64::from_bits(0x2340000000000000) && ay != 0.0)
    {
        return x.hypot(y);
    }
    // ay ≪ ax: the sum is just ax correctly rounded.
    if ax * f64::from_bits(0x3C90000000000000) >= ay {
        return ax + ay;
    }
    let h = (ax * ax + ay * ay).sqrt();
    // One correction step recovers the exactly-rounded result from the
    // naively computed square root.
    let (t1, t2);
    if h <= 2.0 * ay {
        let delta = h - ay;
        t1 = ((delta + delta) - ax) * ax;
        t2 = (delta - ((ax - ay) + (ax - ay))) * delta;
    } else {
        let delta = h - ax;
        t1 = (delta + delta) * (ax - (ay + ay));
        t2 = ((4.0 * delta) - ay) * ay + delta * delta;
    }
    h - (t1 + t2) / (h + h)
}

/// Lane width of [`pattern_db_slice`]'s chunks. Eight f64s = two AVX2
/// vectors; wide enough to amortize the per-chunk fallback scan, small
/// enough that an extreme lane only de-vectorizes a short run.
const LANES: usize = 8;

/// Fused pattern-synthesis tail. For every `k`:
///
/// ```text
/// af    = hypot(re[k], im[k])
/// out[k] = edb[k] + (10·log10(af² / active)).max(-60) + gain
/// ```
///
/// bit-identical to running [`hypot`], the square/normalize step,
/// [`log10`] and the dB combine per sample (a zero field maps to −60
/// through `10·log10(0) = −inf`), but chunked so the common case
/// vectorizes: mid-range lanes run both algorithms inline and branchless,
/// and the field magnitude and power never round-trip through memory.
/// This is the hot tail of [`crate::array`]'s chunked synthesis.
#[inline]
pub fn pattern_db_slice(
    re: &[f64],
    im: &[f64],
    active: f64,
    edb: &[f64],
    gain: f64,
    out: &mut [f64],
) {
    assert!(re.len() == im.len() && re.len() == edb.len() && re.len() == out.len());
    #[inline(always)]
    fn tail_scalar(rj: f64, ij: f64, active: f64, e: f64, gain: f64) -> f64 {
        let af = hypot(rj, ij);
        let p = af * af / active;
        let af_db = 10.0 * log10(p);
        e + af_db.max(-60.0) + gain
    }
    let n = re.len();
    let mut k = 0;
    while k + LANES <= n {
        let r = &re[k..k + LANES];
        let m = &im[k..k + LANES];
        let e = &edb[k..k + LANES];
        let o = &mut out[k..k + LANES];
        // Branchless hypot and power, kept in lane-local registers. The
        // domain check rides along in the same pass (a NaN lane fails the
        // compares and flags the fallback); extreme lanes compute garbage
        // here — finite-arithmetic, trap-free garbage — and the whole
        // chunk is then redone through the scalar path.
        let mut pw = [0.0f64; LANES];
        let mut ok = true;
        for j in 0..LANES {
            let ax0 = r[j].abs();
            let ay0 = m[j].abs();
            let ax = if ax0 < ay0 { ay0 } else { ax0 };
            let ay = if ax0 < ay0 { ax0 } else { ay0 };
            ok &= (ax <= f64::from_bits(0x5FE0000000000000))
                & ((ay >= f64::from_bits(0x2340000000000000)) | (ay == 0.0));
            let exitc = ax * f64::from_bits(0x3C90000000000000) >= ay;
            let h = (ax * ax + ay * ay).sqrt();
            let cond = h <= 2.0 * ay;
            let d1 = h - ay;
            let t1a = ((d1 + d1) - ax) * ax;
            let t2a = (d1 - ((ax - ay) + (ax - ay))) * d1;
            let d2 = h - ax;
            let t1b = (d2 + d2) * (ax - (ay + ay));
            let t2b = ((4.0 * d2) - ay) * ay + d2 * d2;
            let t1 = if cond { t1a } else { t1b };
            let t2 = if cond { t2a } else { t2b };
            let corr = h - (t1 + t2) / (h + h);
            let af = if exitc { ax + ay } else { corr };
            pw[j] = af * af / active;
        }
        if !ok {
            for j in 0..LANES {
                o[j] = tail_scalar(r[j], m[j], active, e[j], gain);
            }
            k += LANES;
            continue;
        }
        // Log10 fallback scan over the normalized powers.
        let mut lfb = false;
        for &v in &pw {
            let ok = (v >= f64::from_bits(0x0010000000000000)) & (v < f64::INFINITY);
            lfb |= !(ok | (v == 0.0));
        }
        if lfb {
            for j in 0..LANES {
                let af_db = 10.0 * log10(pw[j]);
                o[j] = e[j] + af_db.max(-60.0) + gain;
            }
            k += LANES;
            continue;
        }
        let mut zz = [0.0f64; LANES];
        let mut kd = [0.0f64; LANES];
        let mut yy = [0.0f64; LANES];
        let mut invc = [0.0f64; LANES];
        let mut logc = [0.0f64; LANES];
        let mut near_any = false;
        // Phase 1: exponent/mantissa split + breakpoint lookup.
        for j in 0..LANES {
            let ix = pw[j].to_bits();
            let hx = ix as i64;
            let ke = (hx >> 52) - 1023;
            let i_neg = ((ke as u64) >> 63) as i64;
            let mant = (ix & 0x000fffffffffffff) | (((0x3ff - i_neg) as u64) << 52);
            yy[j] = (ke + i_neg) as f64;
            near_any |= mant.wrapping_sub(0x3fee000000000000) < 0x3090000000000;
            let tmp = mant.wrapping_sub(OFF);
            let ti = ((tmp >> 45) & 127) as usize;
            kd[j] = ((tmp as i64) >> 52) as f64;
            zz[j] = f64::from_bits(mant.wrapping_sub(tmp & (0xfffu64 << 52)));
            let (ib, lb) = LOG_TAB[ti];
            invc[j] = f64::from_bits(ib);
            logc[j] = f64::from_bits(lb);
        }
        // Phase 2: table-arm polynomial plus dB combine (pure f64,
        // vectorizes; `10·(−inf) = −inf` so a zero power clamps to −60).
        for j in 0..LANES {
            let rr = zz[j].mul_add(invc[j], -1.0);
            let w = kd[j].mul_add(LN2HI, logc[j]);
            let hi = rr + w;
            let lo = kd[j].mul_add(LN2LO, (w - hi) + rr);
            let r2 = rr * rr;
            let r3 = rr * r2;
            let q = A[2].mul_add(rr, A[1]);
            let s = A[4].mul_add(rr, A[3]);
            let lo2 = r2.mul_add(A[0], lo);
            let p = s.mul_add(r2, q);
            let linner = r3.mul_add(p, lo2) + hi;
            let y = yy[j];
            let res = (IVLN10 * linner + y * LOG10_2LO) + y * LOG10_2HI;
            let lg = if pw[j] == 0.0 { f64::NEG_INFINITY } else { res };
            let af_db = 10.0 * lg;
            o[j] = e[j] + af_db.max(-60.0) + gain;
        }
        // Phase 3: rare near-1 powers re-run through the scalar clone.
        if near_any {
            for j in 0..LANES {
                let ix = pw[j].to_bits();
                let hx = ix as i64;
                let ke = (hx >> 52) - 1023;
                let i_neg = ((ke as u64) >> 63) as i64;
                let mant = (ix & 0x000fffffffffffff) | (((0x3ff - i_neg) as u64) << 52);
                if mant.wrapping_sub(0x3fee000000000000) < 0x3090000000000 {
                    let af_db = 10.0 * log10(pw[j]);
                    o[j] = e[j] + af_db.max(-60.0) + gain;
                }
            }
        }
        k += LANES;
    }
    while k < n {
        out[k] = tail_scalar(re[k], im[k], active, edb[k], gain);
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log10_matches_std_on_random_bits() {
        let check = |v: f64| {
            assert_eq!(
                log10(v).to_bits(),
                v.log10().to_bits(),
                "log10 mismatch at {v:e} ({:#x})",
                v.to_bits()
            );
        };
        let mut s: u64 = 0xD1B5_4A32_D192_ED03;
        for _ in 0..2_000_000u32 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            check(f64::from_bits(s & 0x7fff_ffff_ffff_ffff));
        }
        // Dense sweeps of the domains synthesis hits: across the near-1
        // window of `__log` (0.9 … 1.15) and the af_power range (0, 4].
        for j in 0..200_000u32 {
            check(0.9 + f64::from(j) * 1.25e-6);
            check(f64::from(j + 1) * 2e-5);
        }
    }

    #[test]
    fn hypot_matches_std_on_random_bits() {
        let check = |a: f64, b: f64| {
            assert_eq!(
                hypot(a, b).to_bits(),
                a.hypot(b).to_bits(),
                "hypot mismatch at ({a:e}, {b:e})"
            );
        };
        let mut s: u64 = 0xA076_1D64_78BD_642F;
        for _ in 0..1_000_000u32 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let a = f64::from_bits(s & 0x7fff_ffff_ffff_ffff);
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let b = f64::from_bits(s & 0x7fff_ffff_ffff_ffff);
            check(a, b);
        }
        // Dense sweep of mid-range field magnitudes, signs mixed.
        for j in 0..200_000u32 {
            check(
                (f64::from(j) * 0.37).sin() * 4.0,
                (f64::from(j) * 0.53).cos() * 4.0,
            );
        }
    }

    #[test]
    fn fused_pattern_db_matches_composed_std() {
        let mut s: u64 = 0xFEED_FACE_CAFE_BEEF;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let n = 733usize; // odd: exercises the scalar remainder tail
        let mut re = vec![0.0f64; n];
        let mut im = vec![0.0f64; n];
        let mut edb = vec![0.0f64; n];
        let mut o = vec![0.0f64; n];
        for round in 0..300 {
            let active = 1.0 + (round % 13) as f64;
            for j in 0..n {
                match round % 4 {
                    0 => {
                        // Synthesis-like mid-range fields.
                        re[j] = f64::from_bits(next()).sin() * 4.0;
                        im[j] = f64::from_bits(next()).cos() * 4.0;
                    }
                    1 => {
                        // Tiny and exactly-zero fields (the −60 clamp path).
                        re[j] = if next() % 5 == 0 {
                            0.0
                        } else {
                            (next() & 0xff) as f64 * 1e-12
                        };
                        im[j] = if next() % 5 == 0 {
                            0.0
                        } else {
                            (next() & 0xff) as f64 * 1e-12
                        };
                    }
                    2 => {
                        // Near unit power: |field| ≈ sqrt(active).
                        let m = active.sqrt() * (1.0 + (next() & 0xffff) as f64 * 1e-9);
                        re[j] = m;
                        im[j] = (next() & 0xff) as f64 * 1e-6;
                    }
                    _ => {
                        // Arbitrary bit patterns, extremes included.
                        re[j] = f64::from_bits(next() & 0x7fff_ffff_ffff_ffff);
                        im[j] = f64::from_bits(next() & 0x7fff_ffff_ffff_ffff);
                    }
                }
                edb[j] = ((next() & 0xffff) as f64) * 1e-3 - 30.0;
            }
            pattern_db_slice(&re, &im, active, &edb, 11.0, &mut o);
            for j in 0..n {
                let af = re[j].hypot(im[j]);
                let p = af * af / active;
                let af_db = 10.0 * p.log10();
                let want = edb[j] + af_db.max(-60.0) + 11.0;
                assert!(
                    o[j].to_bits() == want.to_bits() || (o[j].is_nan() && want.is_nan()),
                    "pattern_db_slice(re={:e}, im={:e}, active={}): {} vs {}",
                    re[j],
                    im[j],
                    active,
                    o[j],
                    want
                );
            }
        }
    }

    #[test]
    fn edge_cases_delegate() {
        for v in [0.0, -1.0, f64::INFINITY, f64::NAN, f64::MIN_POSITIVE / 2.0] {
            assert_eq!(log10(v).to_bits(), v.log10().to_bits());
        }
        for (a, b) in [
            (0.0, 0.0),
            (f64::INFINITY, f64::NAN),
            (1e308, 1e308),
            (1e-300, 1e-300),
            (3.0, 4.0),
        ] {
            assert_eq!(hypot(a, b).to_bits(), a.hypot(b).to_bits());
        }
    }
}
