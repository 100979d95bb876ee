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
/* Start1000*/

static double z_10001=0;
static double z_10002=0;
static double link10004=0;

void initialize1000(){
  static double tmp_5=0;
  static double tmp_6=0;
  static double tmp_7=0;
  z_10001=tmp_5;
  z_10002=tmp_6;
  link10004=tmp_7;
}

void updateOutput10001(double *inouts1,double *inouts2){
  double tmp_1;
  double tmp_2;
  double tmp_3;
  double tmp_4[2];
  /* Gain block begins.*/
  /* Gain block ends.*/
  tmp_1=z_10001;
  tmp_2=z_10002;
  /* Sum block begins with 2 inputs.*/
  tmp_3=(tmp_1-tmp_2);
  link10004=tmp_3;
  /* MUX block begins with 2 inputs.*/
  tmp_4[0]=tmp_1;
  tmp_4[1]=*inouts1;
  /* MUX block ends.*/
  inouts2[0]=tmp_4[0];
  inouts2[1]=tmp_4[1];
}

void updateState10001(double *inouts1,double *inouts2){
  z_10001=link10004;
  z_10002=*inouts1;
}

/* End1000*/

void toto1000(scicos_block *block,int flag)
{
if (flag == 1) {
  updateOutput10001((GetRealInPortPtrs(block,1)),(GetRealOutPortPtrs(block,1)));
}
else if (flag == 2) {
  updateState10001((GetRealInPortPtrs(block,1)),(GetRealOutPortPtrs(block,1)));
}
else if (flag == 4) {
  initialize1000();
}
}
