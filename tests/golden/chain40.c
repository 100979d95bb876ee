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
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  link402=(*inouts1+(-0.041*z_401));
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  link405=(link402+(0.378*z_402));
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  link408=(link405+(-0.468*z_403));
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  link411=(link408+(-0.218*z_404));
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  link414=(link411+(0.462*z_405));
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  link417=(link414+(0.164*z_406));
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  link420=(link417+(-0.372*z_407));
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  link423=(link420+(-0.152*z_408));
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  link426=(link423+(0.38*z_409));
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  link429=(link426+(-0.059*z_410));
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  link432=(link429+(-0.471*z_411));
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  link435=(link432+(0.396*z_412));
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  link438=(link435+(-0.37*z_413));
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  link441=(link438+(0.141*z_414));
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  link444=(link441+(0.12*z_415));
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  link447=(link444+(-0.039*z_416));
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  link450=(link447+(0.462*z_417));
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  link453=(link450+(-0.323*z_418));
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  link456=(link453+(0.105*z_419));
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  link459=(link456+(-0.386*z_420));
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  link462=(link459+(0.466*z_421));
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  link465=(link462+(-0.355*z_422));
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  link468=(link465+(0.013*z_423));
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  link471=(link468+(0.333*z_424));
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  link474=(link471+(0.383*z_425));
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  link477=(link474+(-0.402*z_426));
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  link480=(link477+(0.377*z_427));
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  link483=(link480+(0.343*z_428));
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  link486=(link483+(-0.184*z_429));
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  link489=(link486+(0.256*z_430));
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  link492=(link489+(-0.273*z_431));
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  link495=(link492+(-0.346*z_432));
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  link498=(link495+(-0.337*z_433));
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  link501=(link498+(-0.191*z_434));
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  link504=(link501+(0.326*z_435));
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  link507=(link504+(-0.038*z_436));
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  link510=(link507+(0.489*z_437));
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  link513=(link510+(0.394*z_438));
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  link516=(link513+(-0.29*z_439));
  /* Gain block begins.*/
  /* Gain block ends.*/
  /* Sum block begins with 2 inputs.*/
  *inouts2=(link516+(-0.067*z_440));
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
