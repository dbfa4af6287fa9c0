"""Connected graphs on 1 to 7 vertices, one per isomorphism class, as graph6 strings.

Generated by ``python tests/test_graphs.py``; do not edit.  ``GRAPH6[n]``
holds the graphs on n vertices, separated by spaces, in the order of
Read & Wilson, *An Atlas of Graphs* (1998), each in the suffix-connected
labels that ``graphs.lex_labeled_copy`` gives it; graph6 vertex k is
vertex k + 1.  ``test_catalog_matches_atlas`` rebuilds the table from
networkx's copy of the atlas and compares it graph by graph.
"""

GRAPH6 = {
    1: '@',
    2: 'A_',
    3: 'Bg Bw',
    4: 'CF Ch CN Cl C| C~',
    5: (
        'D?{ DBc DhC D@{ DZC DJc DRc Dhc DNS Db[ D`{ Dlc '
        'Drc DJ{ DF{ Djs Drs Df{ Dl{ Dn{ D~{'
    ),
    6: (
        'E?Bw EO[G EWKG ERCG EXCG EhCG E?Fw EXKG E@dW EfCG Eo[G EZCG '
        'EbcG EaLG EWKW ExCG ErCG EkKG EhEG EB{G EP[g EbsG ET[G EaLW '
        'EG{W Ek[G EVSG E^CG EXSg E{KG EzCG ErSG EYOw ExCg EZEG ElEG '
        'EqLG EwKW Ew{G EfsG EX{G Ed{G EjsG E[mG EzKG EfUG EXSw E~CG '
        'E[MW EB}G E[[g EFFg EhMg ExLG Ep]G EzCW EhdW EhNG EqMg EhUg '
        'Ej\\G EfuG El{G EZSw E~cG E?~w Eh|G Em[W ExLg Ew{W Ep\\g E^eG '
        'E^MG E[\\g EFNg Ehew Ep^G ElMg EtTg ElUg En{G E~[G E_~w EjtW '
        'E^mG E^Mg EjvG Ep^g E]\\g ErXw Ehfw EzNG E^NG EyUw E~{G E{~G '
        'En}G E~wW EyVw ER~g E}^G EV^g El^g E~{W E}~G Ep~w E~^G EznW '
        'E~~G E~nW Ez~w E~~w'
    ),
    7: (
        'F??Fw F_@wG FF?WG FC[GG FFCGG FR?WG FX?WG FaKGG Fh?WG FQKGG FhCGG F?BxG '
        'FE@wG F?Bcw FOWwG F_@wW FaAwG FaHWG Fh?wG FHAgg FW?wW FX@WG FF?WW FaWWG '
        'Fg?hg FZ?WG FfCGG FQIWG FQ[GG FO[KG FjCGG FEGYG FhKGG FR?WW FhDGG FbCgG '
        'FXAGg FX?WW Fl?WG FhCIG Fh?WW FlCGG FQKKG FhCKG FWBwG FF@wG FR@wG FeAwG '
        'Fg\\GG Fj@WG FQKwG FZ@WG F`?Fw FD@wW Fh?Dw FEJWG FXBWG FXAgg FaCwg Ff?wG '
        'FiOwG Fb`WG FhKgG FaKwG FahWG FhOwG FeIWG FW[WG FiLGG FjAWG F^?WG FR?wW '
        'FO[kG FrAWG FaKYG FgGXW FhLGG F|?WG FRWWG FaAwW FG`wg FqHWG Fk[GG FhCWg '
        'FfKGG Fo[WG FfGWG FFOXG FcOyG Ff?WW FgOwg FXsGG Fgogg Fj_WG FWLGg FhCGw '
        'FeGWW FqKWG FyGWG FrKGG FHhGg FsWWG FrcGG FQkIG F`EBW Fh_gg FqGWW Fl?WW '
        'FhEIG FqKIG FwGWg FwBwG F_~GG FW\\gG FXBwG FiPwG FdBwG FfDWG F[awG Fx@wG '
        'Fg\\WG F^?wG FWewG FSdwG Fr@wG Fw{GG FwLgG Fi[WG FXSwG FfsGG Fz?wG FUMWG '
        'F[mGG FNDgG F[kWG FfUGG FhLWG F}?wG F~?WG F_NwG F[HwG F_{wG FX{GG Fs`wG '
        'FhbWG Fd{GG F`{WG F^CWG FWAyg Fp`wG FQUwG FjsGG FhVGG FhMgG FFAXW Fq\\GG '
        'FX]GG FQlWG Fc]gG FfEgG FRPYG Fs]GG FzKGG FqwWG FyWWG FhuGG Fb@XW FXVGG '
        'FfgWG FhNGG FK[iG FbgwG FzCWG FSO{g FqgwG FhdWG Fs[gG FR@XW FhUgG FkowG '
        'FfKgG F~CGG F]WWG Fz_WG FyKWG FROYW FrWWG FGEFw Fk@wW FB{KG FQQyG FXQgg '
        'FqHYG FKYWW FXJGg FjSKG FUWWg Fg]Gg FjAWW FxaGg F]GWg Fp`gg FQMYG F^?WW '
        'FrCGw FQ[kG FrAWW Fq_yG FrKIG FMgYG Fhogg Fj?[W F|?WW FhEMG FlgGg FhMIG '
        'FhcYG FqGZG FjBwG FjPwG FfbWG Fz@wG Fw\\gG FrBwG FS]wG FhLwG FTdwG FY[wG '
        'FfuGG FNTgG F~AWG F?~wG FhRwG FG~WG Fs}GG Fa|gG FmDwG FWVwG FwFwG Fa]wG '
        'Fh|GG F`^gG FxWwG FrHwG FhKxG FVQwG FxLgG Fi{gG FYNgG F`~GG FFNgG FnaWG '
        'FRwwG Fv_wG F[nGG FK\\iG F[\\gG Fm[WG FFwwG FzKgG FrFgG FhewG FppwG Fw{WG '
        'Fl{?W FneGG Fr[gG FrgwG FvMGG FqswG FlMgG FfgwG FVlGG FTO{g FcSyg FuowG '
        'Fe]gG FfMgG F~cGG F]mGG F^MGG FylGG FzgWG FrwWG Fu[gG F{LWG F]owG FxGxG '
        'FXJgg Fs`{G FGENw F`EFw Fj`YG FrCwg FGeJw FnCYG Fi`{G FXJHg FrGwg FNQYG '
        'FvAWW FzSIG FHENW F`EVW FhayG Fr@wW Ft@wW F`MFW FaIxW FK[{G FQKnG FLsYG '
        'FxDkG FxSIW FhFIg Ff?xW FhdYG Fh]IG Fx_wW FxckG FsdoW FhNHG F^KIG FhcWw '
        'FrKHg Fja[G Fqg{G FUo{G FqMiG Fhowg FhMJG FheoW FqC}G FhEKw FqKXg FxEKW '
        'FhEMg FrOYW FhdQW FhUkG Fq_yg FhEJW F]MGg F`NBW F|@WW F~?WW FMohg FhMMG '
        'FRMMG F]G]G FzBwG FVMwG FjLwG F~BWG Fj[wG FyRwG FdfwG FnDwG F^KwG FnbWG '
        'FjtWG F[rwG FwfwG FZNgG FxLwG F@`zw FpxwG F^WwG Fq\\wG FjvGG Fn[WG F^FgG '
        'Fw}WG FvQwG F^MgG Fp^gG FrXwG Fn{GG FvgwG FZ^GG F]\\gG Ft]WG FnuGG F~sGG '
        'FhfwG FrpwG FzgwG F{{WG F]}GG FS`xw FyUwG FzNGG Fr^GG Fv[gG FvlGG F]nGG '
        'F}KwG F^wWG FBwZg F?B~w Fpb{G FdF{G FF[Kw FWVwW FhFxG FxBwW FXYwg Fra{G '
        'F[HzG F@FnW F@{Ng FGM]w FxkkG FxkKW FmSyG Fjb[G F[Dxg FjsYG FvAwW FgS}W '
        'Fhxgg FvIXG F`ENw FWFww Fl{GW F[H{W F[D{g FxecW FpD|G FhA{w FzKWg Fk{[G '
        'FzWYG F[`{W FrGxW FhFWw Fhhwg Fl|?W F^BWW FFK^G FX`{W FxJ_w FhtOw FqO}W '
        'FhFIw FhNJG FjwXG FhFJW FKL\\W FpNDW FqNMG FVw[G FBUlW FN\\KG Fxqgg FksyG '
        'FiO{w FNQYW F]\\Gg Fqg|G F~@WW FheyG Fhqwg FllGW FvKYG FeIxW FNohg Flg[g '
        'FuOww FqsxG FKhZg FhuoW FfLkG FMshg FrW{G FDpjg FllIG Fhqhg FlkYG FhsZG '
        'Fja[W F]owg FKw^G F]NGg FRNMG FuWZG Frq_w F{cZG F~BwG FN\\wG F{rwG F^LwG '
        'Fw^wG FnrWG F^[wG F~DwG FnvGG F]\\wG FN^gG F~{GG FyVwG FlNwG FFB~G FziwG '
        'F}}GG F~KwG F?~]g Fz^GG Fv[wG Fn}GG Fl^gG FV^gG FVxwG F}BJg Fv\\gG F}wwG '
        'F~wWG FFC^w FmPyg FD^Ww Fx\\hG FzPwg FhxxG Ff{Wg F}PyG Fm\\iG FvMWg FFrwW '
        'FfJxG F`Nxg Fo~Wg FvHwg FuTyG F}`yG FrI|G FD^[g FvPyG Fn|?W FzJXG FrLyG '
        'Fy^KG F]TwW F^RXG FXtwg FvAxW FvMkG FzD{G F}{Gg F~CRW F~@wW F{kwg FhdYw '
        'F][Jg Fqg|W F`FNw FhfyG Fl|GW FZh{G FB`~W F@Vng F[q{g F]NWg FyUyG F[kzG '
        'Fr`|G F{Twg F{TwW F{[xG F]M[g FBj]g FKNJw FDXmw FkW]w F{pwg FyUwg FrpYW '
        'FYk|G FC^bw FqO~g FBY^W FKYZw FC\\vW FFFnG F{swg Fl]YG FxW]W FB]mg Fl]oW '
        'FXT[w FQ\\sw Fho}W FB]^G Ft[Jg FZO}W FJY[w FpLYw F^O[w FBjew F^KmG F^oWw '
        'FJa^W F]W[w FvOxW FuKjg FLUmW FLNMW Ffwhg Fji\\G Fs[Zg Fm[\\G FuKmg FreRW '
        'FhENw Fw{Ww F@\\|w FN^wG FX~wG FIVzW F@\\}w FC\\zw F@^zg F@\\~g FBX|w F~[wG '
        'F~{WG FB^bw FI{zg FgB~w F}byG FV{wg F~HxG F~Hwg FA]|w F}Jwg F~BwW FBh|w '
        'F@]~g FBY|w F~{OW FJ{Ng FyVyG FvDxg FyV{G F}bwW F|g|G FN{hg FC\\~W Fth|G '
        'FuZxG F}JwW F{VxG FrZ{G FPT}w Fktww F@t~g F^ZYG FtviG Fm~HG F|VhG FFvHw '
        'FQT|w Fp~oW Fmlwg F]TzG FHN]w Fy|Wg Fn^HG F`}\\g FNFnG Fis}g F~yOW FI]tw '
        'F^nKG F\\|YG Fv]XG F`\\tw F~C^G Fqs}g Fxc{w Frb{W Fhfww FnTNG FsZyg F~cWw '
        'Fu[ww Fh`}w F@vng FBfnW FxNgw FK{^g FreVW FuKzg F}k\\G FltjG FMw^g F^W[w '
        'FHvTw FBnew FXU]w FvMmG FYU\\w Ffwxg Fro}g FuK~G F]w]g Floxw Fb]lg F]w^G '
        'FzeRW Fx~wG FB\\|w FBZzw FB\\~W FK\\zw F~JxG Fw~{G F^\\wW Fvfwg Ftj{g Fse~W '
        'Fsq|w Fm|wg F^Z{G F@^~g FZk|g F~{WW FztxG FD\\~W FK\\|w FN{Ng F`\\|w FI]|w '
        'F}~HG FlnyG FJd~W FBx~g FB^ng F~v_W F|t{G FgF~w Fsfng FreVw FEynw F}TzG '
        'FC|vw FtrLw Fbk}w FBn^W FHn]w FFx{w FEyvw Feg~w F`^|g FIn|g FFy}g Ffk}W '
        'FBnng FLp|w FIm~g F`]~g Fbh|w F][|g FbY|w FJq|w FNw^W Ffwxw F]w^g F{[^g '
        'FJnVW FLvbw FFzbw FzM]W F]s~G F~zwG F~|wG Ftj|W Fsn]w Fdn]w F^k|g Fl~yG '
        'FeN^w Fbn]w FR\\}w FFz]w FF~ww FF|{w Fy~]G F~[xg F~{Ww Flknw Fek~w FEznw '
        'F~ENw FC~vw FJm}w FFy}w Ff}ew FBz~g Few~w Fe]vw Ff]mw FU\\~W F]{^g FF~ew '
        'Ffw}w FJn^W Fs\\zw FtTnw Fs\\vw FLvng F^s~G Ff~`w Fq{~g F~~wG FEv~w Ftm}w '
        'F~{Ng FF~{w FEn~w Ftn]w FEz~w FeN~w Fe]~w Fum~W FE~vw Ffy}w Ff~ew Ftv~G '
        'Ftvng FFz~W F`~vw Ffx|w Ff~dw F]{~g F~~{G F}v}g Fen~w Fe~vw Ff~xw Fd^~w '
        'FFz~w Fd~vw Ffznw F}{~g F~~}G F~z~G F|~lw F~^]w Fvx~w F~~]w F~^nw F~^~w '
        'F~~~w'
    ),
}
