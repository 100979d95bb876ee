#include <scicos/scicos_block4.h>
#include <string.h>
#include <stdio.h>
#include <stdlib.h>
#include <stdint.h>
#include <math.h>
typedef int boolean;
#ifndef TRUE
#define TRUE 1
#define FALSE 0
#endif
/* Start40*/

static double z_401=0;
static double z_402=0;
static double z_403=0;
static double z_404=0;
static double z_405=0;
static double z_406=0;
static double z_407=0;
static double z_408=0;
static double z_409=0;
static double z_410=0;
static double z_411=0;
static double z_412=0;
static double z_413=0;
static double z_414=0;
static double z_415=0;
static double z_416=0;
static double z_417=0;
static double z_418=0;
static double z_419=0;
static double z_420=0;
static double z_421=0;
static double z_422=0;
static double z_423=0;
static double z_424=0;
static double z_425=0;
static double z_426=0;
static double z_427=0;
static double z_428=0;
static double z_429=0;
static double z_430=0;
static double z_431=0;
static double z_432=0;
static double z_433=0;
static double z_434=0;
static double z_435=0;
static double z_436=0;
static double z_437=0;
static double z_438=0;
static double z_439=0;
static double z_440=0;
static double link402=0;
static double link405=0;
static double link408=0;
static double link411=0;
static double link414=0;
static double link417=0;
static double link420=0;
static double link423=0;
static double link426=0;
static double link429=0;
static double link432=0;
static double link435=0;
static double link438=0;
static double link441=0;
static double link444=0;
static double link447=0;
static double link450=0;
static double link453=0;
static double link456=0;
static double link459=0;
static double link462=0;
static double link465=0;
static double link468=0;
static double link471=0;
static double link474=0;
static double link477=0;
static double link480=0;
static double link483=0;
static double link486=0;
static double link489=0;
static double link492=0;
static double link495=0;
static double link498=0;
static double link501=0;
static double link504=0;
static double link507=0;
static double link510=0;
static double link513=0;
static double link516=0;

void initialize40(){
  static double tmp_121=0;
  static double tmp_122=0;
  static double tmp_123=0;
  static double tmp_124=0;
  static double tmp_125=0;
  static double tmp_126=0;
  static double tmp_127=0;
  static double tmp_128=0;
  static double tmp_129=0;
  static double tmp_130=0;
  static double tmp_131=0;
  static double tmp_132=0;
  static double tmp_133=0;
  static double tmp_134=0;
  static double tmp_135=0;
  static double tmp_136=0;
  static double tmp_137=0;
  static double tmp_138=0;
  static double tmp_139=0;
  static double tmp_140=0;
  static double tmp_141=0;
  static double tmp_142=0;
  static double tmp_143=0;
  static double tmp_144=0;
  static double tmp_145=0;
  static double tmp_146=0;
  static double tmp_147=0;
  static double tmp_148=0;
  static double tmp_149=0;
  static double tmp_150=0;
  static double tmp_151=0;
  static double tmp_152=0;
  static double tmp_153=0;
  static double tmp_154=0;
  static double tmp_155=0;
  static double tmp_156=0;
  static double tmp_157=0;
  static double tmp_158=0;
  static double tmp_159=0;
  static double tmp_160=0;
  static double tmp_161=0;
  static double tmp_162=0;
  static double tmp_163=0;
  static double tmp_164=0;
  static double tmp_165=0;
  static double tmp_166=0;
  static double tmp_167=0;
  static double tmp_168=0;
  static double tmp_169=0;
  static double tmp_170=0;
  static double tmp_171=0;
  static double tmp_172=0;
  static double tmp_173=0;
  static double tmp_174=0;
  static double tmp_175=0;
  static double tmp_176=0;
  static double tmp_177=0;
  static double tmp_178=0;
  static double tmp_179=0;
  static double tmp_180=0;
  static double tmp_181=0;
  static double tmp_182=0;
  static double tmp_183=0;
  static double tmp_184=0;
  static double tmp_185=0;
  static double tmp_186=0;
  static double tmp_187=0;
  static double tmp_188=0;
  static double tmp_189=0;
  static double tmp_190=0;
  static double tmp_191=0;
  static double tmp_192=0;
  static double tmp_193=0;
  static double tmp_194=0;
  static double tmp_195=0;
  static double tmp_196=0;
  static double tmp_197=0;
  static double tmp_198=0;
  static double tmp_199=0;
  z_401=tmp_121;
  z_402=tmp_122;
  z_403=tmp_123;
  z_404=tmp_124;
  z_405=tmp_125;
  z_406=tmp_126;
  z_407=tmp_127;
  z_408=tmp_128;
  z_409=tmp_129;
  z_410=tmp_130;
  z_411=tmp_131;
  z_412=tmp_132;
  z_413=tmp_133;
  z_414=tmp_134;
  z_415=tmp_135;
  z_416=tmp_136;
  z_417=tmp_137;
  z_418=tmp_138;
  z_419=tmp_139;
  z_420=tmp_140;
  z_421=tmp_141;
  z_422=tmp_142;
  z_423=tmp_143;
  z_424=tmp_144;
  z_425=tmp_145;
  z_426=tmp_146;
  z_427=tmp_147;
  z_428=tmp_148;
  z_429=tmp_149;
  z_430=tmp_150;
  z_431=tmp_151;
  z_432=tmp_152;
  z_433=tmp_153;
  z_434=tmp_154;
  z_435=tmp_155;
  z_436=tmp_156;
  z_437=tmp_157;
  z_438=tmp_158;
  z_439=tmp_159;
  z_440=tmp_160;
  link402=tmp_161;
  link405=tmp_162;
  link408=tmp_163;
  link411=tmp_164;
  link414=tmp_165;
  link417=tmp_166;
  link420=tmp_167;
  link423=tmp_168;
  link426=tmp_169;
  link429=tmp_170;
  link432=tmp_171;
  link435=tmp_172;
  link438=tmp_173;
  link441=tmp_174;
  link444=tmp_175;
  link447=tmp_176;
  link450=tmp_177;
  link453=tmp_178;
  link456=tmp_179;
  link459=tmp_180;
  link462=tmp_181;
  link465=tmp_182;
  link468=tmp_183;
  link471=tmp_184;
  link474=tmp_185;
  link477=tmp_186;
  link480=tmp_187;
  link483=tmp_188;
  link486=tmp_189;
  link489=tmp_190;
  link492=tmp_191;
  link495=tmp_192;
  link498=tmp_193;
  link501=tmp_194;
  link504=tmp_195;
  link507=tmp_196;
  link510=tmp_197;
  link513=tmp_198;
  link516=tmp_199;
}

void updateOutput401(double *inouts1,double *inouts2){
  double tmp_1;
  double tmp_2;
  double tmp_3;
  double tmp_4;
  double tmp_5;
  double tmp_6;
  double tmp_7;
  double tmp_8;
  double tmp_9;
  double tmp_10;
  double tmp_11;
  double tmp_12;
  double tmp_13;
  double tmp_14;
  double tmp_15;
  double tmp_16;
  double tmp_17;
  double tmp_18;
  double tmp_19;
  double tmp_20;
  double tmp_21;
  double tmp_22;
  double tmp_23;
  double tmp_24;
  double tmp_25;
  double tmp_26;
  double tmp_27;
  double tmp_28;
  double tmp_29;
  double tmp_30;
  double tmp_31;
  double tmp_32;
  double tmp_33;
  double tmp_34;
  double tmp_35;
  double tmp_36;
  double tmp_37;
  double tmp_38;
  double tmp_39;
  double tmp_40;
  double tmp_41;
  double tmp_42;
  double tmp_43;
  double tmp_44;
  double tmp_45;
  double tmp_46;
  double tmp_47;
  double tmp_48;
  double tmp_49;
  double tmp_50;
  double tmp_51;
  double tmp_52;
  double tmp_53;
  double tmp_54;
  double tmp_55;
  double tmp_56;
  double tmp_57;
  double tmp_58;
  double tmp_59;
  double tmp_60;
  double tmp_61;
  double tmp_62;
  double tmp_63;
  double tmp_64;
  double tmp_65;
  double tmp_66;
  double tmp_67;
  double tmp_68;
  double tmp_69;
  double tmp_70;
  double tmp_71;
  double tmp_72;
  double tmp_73;
  double tmp_74;
  double tmp_75;
  double tmp_76;
  double tmp_77;
  double tmp_78;
  double tmp_79;
  double tmp_80;
  double tmp_81;
  double tmp_82;
  double tmp_83;
  double tmp_84;
  double tmp_85;
  double tmp_86;
  double tmp_87;
  double tmp_88;
  double tmp_89;
  double tmp_90;
  double tmp_91;
  double tmp_92;
  double tmp_93;
  double tmp_94;
  double tmp_95;
  double tmp_96;
  double tmp_97;
  double tmp_98;
  double tmp_99;
  double tmp_100;
  double tmp_101;
  double tmp_102;
  double tmp_103;
  double tmp_104;
  double tmp_105;
  double tmp_106;
  double tmp_107;
  double tmp_108;
  double tmp_109;
  double tmp_110;
  double tmp_111;
  double tmp_112;
  double tmp_113;
  double tmp_114;
  double tmp_115;
  double tmp_116;
  double tmp_117;
  double tmp_118;
  double tmp_119;
  double tmp_120;
  tmp_1=z_401;
  /* Gain block begins.*/
  tmp_2=(-0.041*tmp_1);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_3=(*inouts1+tmp_2);
  link402=tmp_3;
  tmp_4=z_402;
  /* Gain block begins.*/
  tmp_5=(0.378*tmp_4);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_6=(link402+tmp_5);
  link405=tmp_6;
  tmp_7=z_403;
  /* Gain block begins.*/
  tmp_8=(-0.468*tmp_7);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_9=(link405+tmp_8);
  link408=tmp_9;
  tmp_10=z_404;
  /* Gain block begins.*/
  tmp_11=(-0.218*tmp_10);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_12=(link408+tmp_11);
  link411=tmp_12;
  tmp_13=z_405;
  /* Gain block begins.*/
  tmp_14=(0.462*tmp_13);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_15=(link411+tmp_14);
  link414=tmp_15;
  tmp_16=z_406;
  /* Gain block begins.*/
  tmp_17=(0.164*tmp_16);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_18=(link414+tmp_17);
  link417=tmp_18;
  tmp_19=z_407;
  /* Gain block begins.*/
  tmp_20=(-0.372*tmp_19);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_21=(link417+tmp_20);
  link420=tmp_21;
  tmp_22=z_408;
  /* Gain block begins.*/
  tmp_23=(-0.152*tmp_22);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_24=(link420+tmp_23);
  link423=tmp_24;
  tmp_25=z_409;
  /* Gain block begins.*/
  tmp_26=(0.38*tmp_25);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_27=(link423+tmp_26);
  link426=tmp_27;
  tmp_28=z_410;
  /* Gain block begins.*/
  tmp_29=(-0.059*tmp_28);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_30=(link426+tmp_29);
  link429=tmp_30;
  tmp_31=z_411;
  /* Gain block begins.*/
  tmp_32=(-0.471*tmp_31);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_33=(link429+tmp_32);
  link432=tmp_33;
  tmp_34=z_412;
  /* Gain block begins.*/
  tmp_35=(0.396*tmp_34);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_36=(link432+tmp_35);
  link435=tmp_36;
  tmp_37=z_413;
  /* Gain block begins.*/
  tmp_38=(-0.37*tmp_37);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_39=(link435+tmp_38);
  link438=tmp_39;
  tmp_40=z_414;
  /* Gain block begins.*/
  tmp_41=(0.141*tmp_40);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_42=(link438+tmp_41);
  link441=tmp_42;
  tmp_43=z_415;
  /* Gain block begins.*/
  tmp_44=(0.12*tmp_43);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_45=(link441+tmp_44);
  link444=tmp_45;
  tmp_46=z_416;
  /* Gain block begins.*/
  tmp_47=(-0.039*tmp_46);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_48=(link444+tmp_47);
  link447=tmp_48;
  tmp_49=z_417;
  /* Gain block begins.*/
  tmp_50=(0.462*tmp_49);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_51=(link447+tmp_50);
  link450=tmp_51;
  tmp_52=z_418;
  /* Gain block begins.*/
  tmp_53=(-0.323*tmp_52);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_54=(link450+tmp_53);
  link453=tmp_54;
  tmp_55=z_419;
  /* Gain block begins.*/
  tmp_56=(0.105*tmp_55);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_57=(link453+tmp_56);
  link456=tmp_57;
  tmp_58=z_420;
  /* Gain block begins.*/
  tmp_59=(-0.386*tmp_58);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_60=(link456+tmp_59);
  link459=tmp_60;
  tmp_61=z_421;
  /* Gain block begins.*/
  tmp_62=(0.466*tmp_61);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_63=(link459+tmp_62);
  link462=tmp_63;
  tmp_64=z_422;
  /* Gain block begins.*/
  tmp_65=(-0.355*tmp_64);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_66=(link462+tmp_65);
  link465=tmp_66;
  tmp_67=z_423;
  /* Gain block begins.*/
  tmp_68=(0.013*tmp_67);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_69=(link465+tmp_68);
  link468=tmp_69;
  tmp_70=z_424;
  /* Gain block begins.*/
  tmp_71=(0.333*tmp_70);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_72=(link468+tmp_71);
  link471=tmp_72;
  tmp_73=z_425;
  /* Gain block begins.*/
  tmp_74=(0.383*tmp_73);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_75=(link471+tmp_74);
  link474=tmp_75;
  tmp_76=z_426;
  /* Gain block begins.*/
  tmp_77=(-0.402*tmp_76);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_78=(link474+tmp_77);
  link477=tmp_78;
  tmp_79=z_427;
  /* Gain block begins.*/
  tmp_80=(0.377*tmp_79);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_81=(link477+tmp_80);
  link480=tmp_81;
  tmp_82=z_428;
  /* Gain block begins.*/
  tmp_83=(0.343*tmp_82);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_84=(link480+tmp_83);
  link483=tmp_84;
  tmp_85=z_429;
  /* Gain block begins.*/
  tmp_86=(-0.184*tmp_85);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_87=(link483+tmp_86);
  link486=tmp_87;
  tmp_88=z_430;
  /* Gain block begins.*/
  tmp_89=(0.256*tmp_88);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_90=(link486+tmp_89);
  link489=tmp_90;
  tmp_91=z_431;
  /* Gain block begins.*/
  tmp_92=(-0.273*tmp_91);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_93=(link489+tmp_92);
  link492=tmp_93;
  tmp_94=z_432;
  /* Gain block begins.*/
  tmp_95=(-0.346*tmp_94);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_96=(link492+tmp_95);
  link495=tmp_96;
  tmp_97=z_433;
  /* Gain block begins.*/
  tmp_98=(-0.337*tmp_97);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_99=(link495+tmp_98);
  link498=tmp_99;
  tmp_100=z_434;
  /* Gain block begins.*/
  tmp_101=(-0.191*tmp_100);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_102=(link498+tmp_101);
  link501=tmp_102;
  tmp_103=z_435;
  /* Gain block begins.*/
  tmp_104=(0.326*tmp_103);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_105=(link501+tmp_104);
  link504=tmp_105;
  tmp_106=z_436;
  /* Gain block begins.*/
  tmp_107=(-0.038*tmp_106);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_108=(link504+tmp_107);
  link507=tmp_108;
  tmp_109=z_437;
  /* Gain block begins.*/
  tmp_110=(0.489*tmp_109);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_111=(link507+tmp_110);
  link510=tmp_111;
  tmp_112=z_438;
  /* Gain block begins.*/
  tmp_113=(0.394*tmp_112);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_114=(link510+tmp_113);
  link513=tmp_114;
  tmp_115=z_439;
  /* Gain block begins.*/
  tmp_116=(-0.29*tmp_115);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_117=(link513+tmp_116);
  link516=tmp_117;
  tmp_118=z_440;
  /* Gain block begins.*/
  tmp_119=(-0.067*tmp_118);
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  tmp_120=(link516+tmp_119);
  *inouts2=tmp_120;
}

void updateState401(double *inouts1,double *inouts2){
  z_401=link402;
  z_402=link405;
  z_403=link408;
  z_404=link411;
  z_405=link414;
  z_406=link417;
  z_407=link420;
  z_408=link423;
  z_409=link426;
  z_410=link429;
  z_411=link432;
  z_412=link435;
  z_413=link438;
  z_414=link441;
  z_415=link444;
  z_416=link447;
  z_417=link450;
  z_418=link453;
  z_419=link456;
  z_420=link459;
  z_421=link462;
  z_422=link465;
  z_423=link468;
  z_424=link471;
  z_425=link474;
  z_426=link477;
  z_427=link480;
  z_428=link483;
  z_429=link486;
  z_430=link489;
  z_431=link492;
  z_432=link495;
  z_433=link498;
  z_434=link501;
  z_435=link504;
  z_436=link507;
  z_437=link510;
  z_438=link513;
  z_439=link516;
  z_440=*inouts2;
}

/* End40*/

void toto40(scicos_block *block,int flag)
{
if (flag == 1) {
  updateOutput401((GetRealInPortPtrs(block,1)),(GetRealOutPortPtrs(block,1)));
}
else if (flag == 2) {
  updateState401((GetRealInPortPtrs(block,1)),(GetRealOutPortPtrs(block,1)));
}
else if (flag == 4) {
  initialize40();
}
}
